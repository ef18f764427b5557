package telemetry

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// BundleVersion is the incident-bundle format version. Readers reject
// bundles with a different major layout; bump it whenever the manifest
// schema or the mandatory file set changes incompatibly.
const BundleVersion = 1

// BundleManifestName is the manifest's entry name; it is always the first
// entry in the tarball so a reader can validate before extracting.
const BundleManifestName = "manifest.json"

// BundleEntry describes one file in an incident bundle: its name, exact
// uncompressed size, and IEEE CRC-32 — enough for the reader to detect
// truncation and corruption per file, on top of gzip's whole-stream
// checksum.
type BundleEntry struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// BundleManifest is the versioned index at the head of every incident
// bundle.
type BundleManifest struct {
	Version int           `json:"version"`
	Tool    string        `json:"tool"`    // producing command, e.g. "wdmsoak"
	Trigger string        `json:"trigger"` // violation | panic | sigquit | request
	Slot    int64         `json:"slot"`    // slot the trigger fired at
	UnixNS  int64         `json:"unix_ns"` // wall-clock dump time
	Files   []BundleEntry `json:"files"`
}

// BundleWriter accumulates the files of an incident bundle in memory
// (every source is a bounded ring, so bundles are bounded too) and writes
// them out as one gzip tarball with the manifest as the first entry.
type BundleWriter struct {
	manifest BundleManifest
	files    []namedBuf
}

type namedBuf struct {
	name string
	data []byte
}

// NewBundleWriter starts a bundle for the given producing tool, trigger
// kind, and trigger slot.
func NewBundleWriter(tool, trigger string, slot int64) *BundleWriter {
	return &BundleWriter{manifest: BundleManifest{
		Version: BundleVersion,
		Tool:    tool,
		Trigger: trigger,
		Slot:    slot,
		UnixNS:  time.Now().UnixNano(),
	}}
}

// Add stores one file's contents under name. Duplicate names are an
// error surfaced at WriteTo time.
func (w *BundleWriter) Add(name string, data []byte) {
	w.files = append(w.files, namedBuf{name: name, data: append([]byte(nil), data...)})
}

// AddJSON marshals v with indentation and stores it under name.
func (w *BundleWriter) AddJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bundle: marshal %s: %w", name, err)
	}
	w.Add(name, append(data, '\n'))
	return nil
}

// AddFunc runs fill against a buffer and stores the result under name —
// the natural adapter for the recorder's Write*JSONL methods.
func (w *BundleWriter) AddFunc(name string, fill func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := fill(&buf); err != nil {
		return fmt.Errorf("bundle: fill %s: %w", name, err)
	}
	w.Add(name, buf.Bytes())
	return nil
}

// WriteTo writes the finished bundle as a gzip tarball.
func (w *BundleWriter) WriteTo(out io.Writer) (int64, error) {
	seen := make(map[string]bool, len(w.files)+1)
	seen[BundleManifestName] = true
	w.manifest.Files = w.manifest.Files[:0]
	for _, f := range w.files {
		if seen[f.name] {
			return 0, fmt.Errorf("bundle: duplicate or reserved entry name %q", f.name)
		}
		seen[f.name] = true
		w.manifest.Files = append(w.manifest.Files, BundleEntry{
			Name:  f.name,
			Size:  int64(len(f.data)),
			CRC32: crc32.ChecksumIEEE(f.data),
		})
	}
	sort.Slice(w.manifest.Files, func(i, j int) bool {
		return w.manifest.Files[i].Name < w.manifest.Files[j].Name
	})
	manifest, err := json.MarshalIndent(&w.manifest, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("bundle: marshal manifest: %w", err)
	}
	manifest = append(manifest, '\n')

	cw := &countingWriter{w: out}
	gz := gzip.NewWriter(cw)
	tw := tar.NewWriter(gz)
	write := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: time.Unix(0, w.manifest.UnixNS),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("bundle: write header %s: %w", name, err)
		}
		if _, err := tw.Write(data); err != nil {
			return fmt.Errorf("bundle: write %s: %w", name, err)
		}
		return nil
	}
	if err := write(BundleManifestName, manifest); err != nil {
		return cw.n, err
	}
	for _, f := range w.files {
		if err := write(f.name, f.data); err != nil {
			return cw.n, err
		}
	}
	if err := tw.Close(); err != nil {
		return cw.n, fmt.Errorf("bundle: close tar: %w", err)
	}
	if err := gz.Close(); err != nil {
		return cw.n, fmt.Errorf("bundle: close gzip: %w", err)
	}
	return cw.n, nil
}

// WriteFile writes the bundle to path via a temp file + rename so a crash
// mid-dump never leaves a half-written bundle at the final name.
func (w *BundleWriter) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if _, err := w.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bundle: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bundle: %w", err)
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Bundle is a fully validated, decoded incident bundle.
type Bundle struct {
	Manifest BundleManifest
	files    map[string][]byte
}

// File returns the contents of a bundled file, or an error naming it if
// absent (the manifest guarantees presence for listed files, so this only
// fails for names the producer never added).
func (b *Bundle) File(name string) ([]byte, error) {
	data, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("bundle: no entry %q", name)
	}
	return data, nil
}

// Has reports whether the bundle contains name.
func (b *Bundle) Has(name string) bool { _, ok := b.files[name]; return ok }

// Names returns the bundled file names in sorted order, manifest excluded.
func (b *Bundle) Names() []string {
	names := make([]string, 0, len(b.files))
	for n := range b.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ReadBundle decodes and strictly validates an incident bundle: the
// manifest must be the first entry and carry a supported version, every
// listed file must be present with its exact size and CRC-32, and no
// unlisted entries may appear. Truncated or corrupt archives fail with a
// descriptive error rather than yielding partial data.
func ReadBundle(r io.Reader) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: not a gzip stream: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)

	hdr, err := tr.Next()
	if err != nil {
		return nil, fmt.Errorf("bundle: read first entry: %w", err)
	}
	if hdr.Name != BundleManifestName {
		return nil, fmt.Errorf("bundle: first entry is %q, want %q", hdr.Name, BundleManifestName)
	}
	if err := checkRegular(hdr); err != nil {
		return nil, err
	}
	manifestData, err := io.ReadAll(tr)
	if err != nil {
		return nil, fmt.Errorf("bundle: read manifest: %w", err)
	}
	b := &Bundle{files: make(map[string][]byte)}
	if err := json.Unmarshal(manifestData, &b.Manifest); err != nil {
		return nil, fmt.Errorf("bundle: decode manifest: %w", err)
	}
	if b.Manifest.Version != BundleVersion {
		return nil, fmt.Errorf("bundle: version %d, this reader supports %d", b.Manifest.Version, BundleVersion)
	}
	want := make(map[string]BundleEntry, len(b.Manifest.Files))
	for _, e := range b.Manifest.Files {
		if e.Name == BundleManifestName {
			return nil, fmt.Errorf("bundle: manifest lists itself")
		}
		if _, dup := want[e.Name]; dup {
			return nil, fmt.Errorf("bundle: manifest lists %q twice", e.Name)
		}
		want[e.Name] = e
	}

	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("bundle: truncated or corrupt archive: %w", err)
		}
		entry, listed := want[hdr.Name]
		if !listed {
			return nil, fmt.Errorf("bundle: entry %q not in manifest", hdr.Name)
		}
		if _, dup := b.files[hdr.Name]; dup {
			return nil, fmt.Errorf("bundle: entry %q appears twice", hdr.Name)
		}
		if err := checkRegular(hdr); err != nil {
			return nil, err
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("bundle: truncated entry %q: %w", hdr.Name, err)
		}
		if int64(len(data)) != entry.Size {
			return nil, fmt.Errorf("bundle: entry %q is %d bytes, manifest says %d", hdr.Name, len(data), entry.Size)
		}
		if got := crc32.ChecksumIEEE(data); got != entry.CRC32 {
			return nil, fmt.Errorf("bundle: entry %q CRC mismatch: got %08x want %08x", hdr.Name, got, entry.CRC32)
		}
		b.files[hdr.Name] = data
	}
	for name := range want {
		if _, ok := b.files[name]; !ok {
			return nil, fmt.Errorf("bundle: manifest lists %q but archive lacks it", name)
		}
	}
	// Drain the remaining gzip stream (tar padding) so the gzip trailer
	// checksum is actually verified — tar's EOF marker sits before it.
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("bundle: corrupt archive tail: %w", err)
	}
	return b, nil
}

// checkRegular refuses any entry BundleWriter does not write. A sparse
// entry in particular reads back its holes as zeros the archive never
// stored, so a few hundred bytes could make the reader allocate
// gigabytes before the size check.
func checkRegular(hdr *tar.Header) error {
	if hdr.Typeflag != tar.TypeReg {
		return fmt.Errorf("bundle: entry %q is not a regular file (type %q)", hdr.Name, hdr.Typeflag)
	}
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return fmt.Errorf("bundle: entry %q is a sparse file", hdr.Name)
		}
	}
	return nil
}

// ReadBundleFile opens and decodes a bundle from disk.
func ReadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	defer f.Close()
	return ReadBundle(f)
}
