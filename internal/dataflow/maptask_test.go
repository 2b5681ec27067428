package dataflow_test

import (
	"testing"

	"unilog/internal/dataflow"
	"unilog/internal/hdfs"
	"unilog/internal/session"
)

// TestMapTaskReduction measures the E4 effect: loading session sequences
// spawns far fewer map tasks and reads far fewer bytes than the raw logs.
func TestMapTaskReduction(t *testing.T) {
	fs := hdfs.New(0)
	dataflow.Populate(t, fs)
	day := dataflow.Day
	if _, _, _, err := session.BuildDay(fs, day, 0); err != nil {
		t.Fatal(err)
	}

	rawJob := dataflow.NewJob("raw", fs)
	raw8, err := rawJob.LoadClientEventsDay(day)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw8.Count(); err != nil {
		t.Fatal(err)
	}
	seqJob := dataflow.NewJob("seq", fs)
	seqs, err := session.LoadSequencesDay(seqJob, day)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := seqs.Count(); err != nil || n != 8 {
		t.Fatalf("sessions = %d, %v", n, err)
	}
	raw, seq := rawJob.Stats(), seqJob.Stats()
	if seq.MapTasks >= raw.MapTasks {
		t.Fatalf("map tasks: seq %d >= raw %d", seq.MapTasks, raw.MapTasks)
	}
	if seq.BytesRead >= raw.BytesRead {
		t.Fatalf("bytes: seq %d >= raw %d", seq.BytesRead, raw.BytesRead)
	}
	if raw.ClusterSeconds() <= seq.ClusterSeconds() {
		t.Fatalf("cluster seconds: raw %.1f <= seq %.1f", raw.ClusterSeconds(), seq.ClusterSeconds())
	}
}
