package telemetry

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func buildTestBundle(t *testing.T) []byte {
	t.Helper()
	w := NewBundleWriter("wdmtest", "violation", 4096)
	w.Add("config.json", []byte(`{"seed":7}`+"\n"))
	w.Add("snapshots.jsonl", []byte(`{"slot":4000}`+"\n"))
	if err := w.AddJSON("incident.json", map[string]any{"invariant": "ledger", "slot": 4096}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBundleRoundTrip(t *testing.T) {
	raw := buildTestBundle(t)
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Version != BundleVersion || b.Manifest.Tool != "wdmtest" ||
		b.Manifest.Trigger != "violation" || b.Manifest.Slot != 4096 {
		t.Fatalf("manifest round-trip = %+v", b.Manifest)
	}
	if got := b.Names(); len(got) != 3 || got[0] != "config.json" {
		t.Fatalf("names = %v", got)
	}
	cfg, err := b.File("config.json")
	if err != nil || string(cfg) != `{"seed":7}`+"\n" {
		t.Fatalf("config = %q, %v", cfg, err)
	}
	inc, err := b.File("incident.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(inc, &m); err != nil || m["invariant"] != "ledger" {
		t.Fatalf("incident = %q (%v)", inc, err)
	}
	if b.Has("nope") {
		t.Fatal("Has reports an entry that was never added")
	}
	if _, err := b.File("nope"); err == nil {
		t.Fatal("File returned data for a missing entry")
	}
}

func TestBundleWriteFile(t *testing.T) {
	w := NewBundleWriter("wdmtest", "sigquit", 1)
	w.Add("a.txt", []byte("hello"))
	path := filepath.Join(t.TempDir(), "incident.tgz")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := b.File("a.txt"); string(data) != "hello" {
		t.Fatalf("a.txt = %q", data)
	}
}

func TestBundleTruncated(t *testing.T) {
	raw := buildTestBundle(t)
	// Every strict prefix must fail, not silently yield partial data.
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(raw)) * frac)
		if _, err := ReadBundle(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(raw))
		}
	}
}

func TestBundleCorrupt(t *testing.T) {
	raw := buildTestBundle(t)
	// Flip one byte in the back half (past the gzip header) at several
	// offsets; each must be caught by the gzip CRC, tar structure, or the
	// manifest's per-file CRC.
	for _, off := range []int{len(raw) / 2, len(raw)/2 + 7, len(raw) - 9} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xFF
		if _, err := ReadBundle(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d decoded without error", off)
		}
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte("this is not a bundle"))); err == nil ||
		!strings.Contains(err.Error(), "gzip") {
		t.Fatalf("garbage input: %v", err)
	}
	if _, err := ReadBundle(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input decoded without error")
	}
}

func TestBundleRejectsWrongVersion(t *testing.T) {
	w := NewBundleWriter("wdmtest", "request", 0)
	w.manifest.Version = BundleVersion + 1
	w.Add("x", []byte("y"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBundle(&buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version bundle: %v", err)
	}
}

func TestBundleRejectsDuplicateEntry(t *testing.T) {
	w := NewBundleWriter("wdmtest", "request", 0)
	w.Add("x", []byte("a"))
	w.Add("x", []byte("b"))
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate entry name accepted")
	}
	w2 := NewBundleWriter("wdmtest", "request", 0)
	w2.Add(BundleManifestName, []byte("shadow"))
	if _, err := w2.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("reserved manifest name accepted")
	}
}

// gnuSparseBundle builds a bundle whose one listed entry is an old-GNU
// sparse file claiming size bytes that are all hole: the archive stores
// no data for it, so the whole bundle is a few hundred bytes.
func gnuSparseBundle(t *testing.T, size int64) []byte {
	t.Helper()
	manifest, err := json.Marshal(BundleManifest{Version: BundleVersion, Tool: "t", Trigger: "request",
		Files: []BundleEntry{{Name: "big", Size: size}}})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	tw := tar.NewWriter(&raw)
	for _, h := range []*tar.Header{
		{Name: BundleManifestName, Mode: 0o644, Size: int64(len(manifest)), Format: tar.FormatGNU},
		{Name: "big", Mode: 0o644, Format: tar.FormatGNU},
	} {
		if err := tw.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		if h.Size > 0 {
			tw.Write(manifest)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	// Turn the second header into a sparse one: type 'S', the real size
	// at offset 483, an empty sparse map, and a fresh header checksum.
	b := raw.Bytes()
	h := b[512+(len(manifest)+511)/512*512:][:512]
	h[156] = tar.TypeGNUSparse
	copy(h[483:495], fmt.Sprintf("%011o\x00", size))
	copy(h[148:156], "        ")
	sum := 0
	for _, c := range h {
		sum += int(c)
	}
	copy(h[148:156], fmt.Sprintf("%06o\x00 ", sum))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(b)
	zw.Close()
	return gz.Bytes()
}

// TestBundleRejectsNonRegularEntry pins that the reader refuses entries
// BundleWriter never writes, before reading them: a sparse entry whose
// 64 MiB are all hole must fail without allocating its claimed size
// (read through io.ReadAll, this ~220-byte bundle costs ~390 MB of
// allocation), and a symlink is refused too.
func TestBundleRejectsNonRegularEntry(t *testing.T) {
	const claimed = 64 << 20
	sparse := gnuSparseBundle(t, claimed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBundle(bytes.NewReader(sparse))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("sparse entry: err = %v, want a not-a-regular-file error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/16 {
		t.Fatalf("reading a %d-byte bundle allocated %d bytes", len(sparse), grew)
	}

	var raw bytes.Buffer
	tw := tar.NewWriter(&raw)
	manifest, _ := json.Marshal(BundleManifest{Version: BundleVersion, Files: []BundleEntry{{Name: "link"}}})
	tw.WriteHeader(&tar.Header{Name: BundleManifestName, Mode: 0o644, Size: int64(len(manifest))})
	tw.Write(manifest)
	tw.WriteHeader(&tar.Header{Name: "link", Typeflag: tar.TypeSymlink, Linkname: "/etc/passwd"})
	tw.Close()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw.Bytes())
	zw.Close()
	if _, err := ReadBundle(&gz); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("symlink entry: err = %v, want a not-a-regular-file error", err)
	}
}
