package dataplane

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/trace"
)

// encodeTrace renders records through the trace writer and returns a
// reader over the image.
func encodeTrace(t *testing.T, write func(w *trace.Writer) error) *trace.Reader {
	t.Helper()
	var buf trace.Buffer
	w, err := trace.NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestRunReplaySizesPortsFromTrace: the vport pool covers every in_port
// of the trace, so an 8-port trace replays and each vport keeps its own
// ledger.
func TestRunReplaySizesPortsFromTrace(t *testing.T) {
	opts := trace.SynthOptions{Seconds: 1, Victims: 14, VictimPps: 50, Ports: 8}
	rd := encodeTrace(t, func(w *trace.Writer) error { return trace.SynthRecords(opts, w.WriteRecord) })
	rep, err := RunReplay(ReplayConfig{}, rd)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != rd.Count() || rep.Totals.Packets != rep.Packets {
		t.Fatalf("replayed %d of %d records, pool saw %d", rep.Packets, rd.Count(), rep.Totals.Packets)
	}
	if got := len(rep.Totals.Ports); got != 8 {
		t.Fatalf("pool has %d vports, want 8", got)
	}
	for p := 1; p < 8; p++ {
		if got := rep.Totals.Ports[p].Packets; got != 2*50 {
			t.Errorf("vport %d saw %d packets, want %d", p, got, 2*50)
		}
	}
}

// TestRunReplayRejectsHugeInPort: an in_port past the vport bound is an
// error, not a pool-sized allocation or a panic.
func TestRunReplayRejectsHugeInPort(t *testing.T) {
	rd := encodeTrace(t, func(w *trace.Writer) error {
		return w.WriteRecord(0, maxReplayPorts, trace.VictimHeader(0))
	})
	if _, err := RunReplay(ReplayConfig{}, rd); err == nil {
		t.Error("RunReplay accepted an in_port past the vport bound")
	}
	if _, err := RunReplayRecords(ReplayConfig{}, []int64{0}, []int{-1},
		[]bitvec.Vec{trace.VictimHeader(0)}); err == nil {
		t.Error("RunReplayRecords accepted a negative in_port")
	}
}
