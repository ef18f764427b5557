package telemetry

import (
	"bytes"
	"compress/gzip"
	"io"
	"sort"
	"testing"
)

// recorderBundle builds the bundle a grant server's flight recorder
// dumps on a ledger violation: incident, decisions, snapshots, faults,
// exemplars and ledger, each filled by the recorder's own writers.
func recorderBundle(tb testing.TB) []byte {
	tb.Helper()
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 2, SnapshotCap: 4, FaultCap: 4, NodeCap: 4})
	r.EnsureShape(2, 3)
	s := r.BeginSnapshot()
	s.Slot, s.Offered, s.Granted = 1024, 40, 31
	s.PerInput[0], s.PerInput[1] = 16, 15
	r.CommitSnapshot()
	r.RecordFaultTransition(FaultTransition{Slot: 1000, Port: 1, Channel: 2, From: 0, To: 2})
	r.Decisions().Emit(0, Event{Slot: 1030, Kind: EvGrant, Fiber: 1, Wave: 2, Channel: 0})
	r.Decisions().Emit(1, Event{Slot: 1030, Kind: EvReject, Fiber: 0, Wave: 1, Channel: -1})
	r.Exemplars().Offer(Exemplar{ID: 9, Tenant: "gold", Slot: 1030, Verdict: "granted",
		StartNS: 5000, TotalNS: 48000, Stages: StageDurations{1000, 200, 30000, 800, 9000, 7000}})

	w := NewBundleWriter("wdmserve", "violation", 1031)
	if err := w.AddJSON("incident.json", map[string]any{"invariant": "ledger", "slot": 1031,
		"detail": "engine offered 41 != service dispatched 40"}); err != nil {
		tb.Fatal(err)
	}
	for _, f := range []struct {
		name string
		fill func(io.Writer) error
	}{
		{"decisions.jsonl", r.Decisions().WriteJSONL},
		{"snapshots.jsonl", r.WriteSnapshotsJSONL},
		{"faults.jsonl", r.WriteFaultsJSONL},
		{"exemplars.jsonl", r.Exemplars().WriteJSONL},
	} {
		if err := w.AddFunc(f.name, f.fill); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.AddJSON("ledger.json", map[string]int64{"submitted": 41, "granted": 31}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// gunzip returns the tar stream inside a bundle.
func gunzip(tb testing.TB, b []byte) []byte {
	tb.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzReadBundle feeds arbitrary bytes to the incident-bundle reader,
// both as given and gzip-wrapped (so mutations reach the tar and
// manifest layers past the gzip checksum). The reader must never panic,
// and any bundle it accepts, re-written by BundleWriter, must read back
// with the same manifest and the same file contents.
func FuzzReadBundle(f *testing.F) {
	real := recorderBundle(f)
	inner := gunzip(f, real)
	f.Add(real, false)
	f.Add(inner, true)
	f.Add(real[:len(real)/2], false)
	f.Add(inner[:len(inner)-1024], true)
	f.Add([]byte{}, true)

	// One stored-only (level 0) writer for the whole worker: execs run one
	// at a time, and a fresh default-level writer per exec costs more
	// than the read it feeds.
	zw, err := gzip.NewWriterLevel(nil, gzip.NoCompression)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		// Larger inputs add no structure the seeds lack and slow each run
		// (gzip-wrapping megabytes) enough to stall the fuzzer.
		if len(data) > 64<<10 {
			return
		}
		in := data
		if wrap {
			var buf bytes.Buffer
			zw.Reset(&buf)
			zw.Write(data)
			zw.Close()
			in = buf.Bytes()
		}
		b, err := ReadBundle(bytes.NewReader(in))
		if err != nil {
			return
		}
		w := NewBundleWriter(b.Manifest.Tool, b.Manifest.Trigger, b.Manifest.Slot)
		w.manifest.UnixNS = b.Manifest.UnixNS
		for _, name := range b.Names() {
			data, _ := b.File(name)
			w.Add(name, data)
		}
		var out bytes.Buffer
		if _, err := w.WriteTo(&out); err != nil {
			t.Fatalf("re-writing an accepted bundle: %v", err)
		}
		b2, err := ReadBundle(&out)
		if err != nil {
			t.Fatalf("re-written bundle does not read back: %v", err)
		}
		m, m2 := b.Manifest, b2.Manifest
		if m.Version != m2.Version || m.Tool != m2.Tool || m.Trigger != m2.Trigger ||
			m.Slot != m2.Slot || m.UnixNS != m2.UnixNS {
			t.Fatalf("manifest header %+v read back as %+v", m, m2)
		}
		files := append([]BundleEntry(nil), m.Files...)
		sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
		if len(files) != len(m2.Files) {
			t.Fatalf("manifest lists %d files, read back %d", len(files), len(m2.Files))
		}
		for i := range files {
			if files[i] != m2.Files[i] {
				t.Fatalf("manifest entry %+v read back as %+v", files[i], m2.Files[i])
			}
		}
		for _, name := range b.Names() {
			d1, _ := b.File(name)
			d2, err := b2.File(name)
			if err != nil || !bytes.Equal(d1, d2) {
				t.Fatalf("entry %q changed on re-write (%v)", name, err)
			}
		}
	})
}

// TestRecorderBundleSeed checks that the fuzzer's seed is a bundle the
// reader accepts, so the fuzzer starts from the valid region.
func TestRecorderBundleSeed(t *testing.T) {
	b, err := ReadBundle(bytes.NewReader(recorderBundle(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Names()); got != 6 {
		t.Fatalf("seed bundle has %d entries, want 6: %v", got, b.Names())
	}
}
