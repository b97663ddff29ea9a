package service

// The golden-WAL recovery check: testdata/golden/data is a durable
// store's data directory (one snapshot plus the WAL records after it)
// written by an earlier release of this service, and
// testdata/golden/state.json is that release's encoded store at the
// moment the process stopped. Recovering the directory must reproduce
// those bytes exactly — a change to session semantics, the snapshot
// format or the replay paths that would alter what old durable state
// recovers to fails here.
//
// The files were generated at commit dfe1b63 by
//
//	PARTFEAS_GOLDEN_OUT=<dir> go test -run TestGoldenWALGenerate ./internal/service
//
// and must not be regenerated by a later release: their value is that
// they come from before the change being checked.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"partfeas"
	"partfeas/internal/online"
)

// goldenScript covers the sessions whose recovered state the golden
// pins: sorted sessions under both schedulers pushed over capacity by
// force admits, force WCET raises and a create over an infeasible set,
// mutated there (rejected admits, batches in both modes, removals that
// keep or restore feasibility, a WCET decrease that restores it), and
// local-policy sessions driven without force. The snapshot falls in the
// middle, while sessions are over capacity, so recovery restores some
// over-capacity records and replays mutations on top of them; one
// session also ends over capacity.
func goldenScript() (before, after []scriptStep) {
	ctx := context.Background()
	on := func(id string, f func(s *session) error) func(*Server) error {
		return func(srv *Server) error {
			s, err := srv.sessions.get(id)
			if err != nil {
				return err
			}
			return f(s)
		}
	}
	create := func(id string, sched partfeas.Scheduler, pol online.Policy, speeds []float64, ts partfeas.TaskSet) scriptStep {
		return scriptStep{"create-" + id, func(srv *Server) error {
			p := make(partfeas.Platform, len(speeds))
			for i, sp := range speeds {
				p[i] = partfeas.Machine{Name: id + "-m", Speed: sp}
			}
			_, err := srv.sessions.create(partfeas.Instance{Tasks: ts, Platform: p, Scheduler: sched}, 1, pol, id)
			return err
		}}
	}
	admit := func(id string, wcet, period int64, force bool) scriptStep {
		return scriptStep{"admit-" + id, on(id, func(s *session) error {
			_, err := s.addTask(ctx, partfeas.Task{Name: "t", WCET: wcet, Period: period}, 0, force)
			return err
		})}
	}
	batch := func(id string, mode online.BatchMode, ts ...partfeas.Task) scriptStep {
		return scriptStep{"batch-" + id, on(id, func(s *session) error {
			_, err := s.addTaskBatch(ctx, ts, make([]int64, len(ts)), mode)
			return err
		})}
	}
	remove := func(id string, idx int) scriptStep {
		return scriptStep{"remove-" + id, on(id, func(s *session) error {
			_, err := s.removeTask(ctx, idx)
			return err
		})}
	}
	wcet := func(id string, idx int, w int64, force bool) scriptStep {
		return scriptStep{"wcet-" + id, on(id, func(s *session) error {
			_, err := s.updateWCET(ctx, idx, w, force)
			return err
		})}
	}
	repart := func(id string) scriptStep {
		return scriptStep{"repartition-" + id, on(id, func(s *session) error {
			_, err := s.repartition(ctx, 0, true)
			return err
		})}
	}
	tk := func(wcet, period int64) partfeas.Task { return partfeas.Task{Name: "b", WCET: wcet, Period: period} }
	base := partfeas.TaskSet{{Name: "a", WCET: 3, Period: 10}, {Name: "b", WCET: 2, Period: 8}, {Name: "c", WCET: 5, Period: 20}}

	before = []scriptStep{
		create("g-edf", partfeas.EDF, online.FirstFitSorted(), []float64{1, 1, 2}, base),
		admit("g-edf", 4, 10, false),
		admit("g-edf", 19, 10, true),
		admit("g-edf", 1, 10, false),
		batch("g-edf", online.BestEffort, tk(1, 9), tk(2, 7)),
		wcet("g-edf", 0, 9, true),    // force raise → over capacity
		admit("g-edf", 1, 10, false), // rejected while over
		batch("g-edf", online.BestEffort, tk(1, 9), tk(2, 7)),
		batch("g-edf", online.AllOrNothing, tk(1, 6), tk(1, 5)),
		remove("g-edf", 1),           // a placed task leaves; still over
		admit("g-edf", 15, 10, true), // force admit, further over

		create("g-rms", partfeas.RMS, online.FirstFitSorted(), []float64{1, 2}, base),
		admit("g-rms", 3, 12, false),
		admit("g-rms", 25, 10, true), // fits nowhere: every task unplaced
		admit("g-rms", 2, 40, false), // rejected while over
		wcet("g-rms", 2, 19, true),
		batch("g-rms", online.BestEffort, tk(1, 30), tk(9, 10)),
		batch("g-rms", online.AllOrNothing, tk(1, 30), tk(1, 40)),

		create("g-inf", partfeas.EDF, online.FirstFitSorted(), []float64{1},
			partfeas.TaskSet{{Name: "x", WCET: 7, Period: 10}, {Name: "y", WCET: 6, Period: 10}}),

		create("g-arr", partfeas.EDF, online.FirstFitArrival(), []float64{1, 1}, base),
		admit("g-arr", 4, 10, false),
		admit("g-arr", 9, 10, false), // rejected
		batch("g-arr", online.BestEffort, tk(1, 10), tk(8, 10), tk(1, 20)),
		wcet("g-arr", 0, 1, false),
		create("g-bf", partfeas.RMS, online.BestFit(), []float64{1, 2, 4}, base),
		batch("g-bf", online.AllOrNothing, tk(3, 10), tk(2, 10)),
		wcet("g-bf", 1, 8, false),
	}
	after = []scriptStep{
		remove("g-edf", 7),         // the forced task leaves; still over
		wcet("g-edf", 0, 1, false), // decrease restores feasibility
		batch("g-edf", online.BestEffort, tk(1, 10), tk(30, 40), tk(1, 11)),
		batch("g-edf", online.AllOrNothing, tk(1, 20), tk(1, 25)),
		wcet("g-edf", 0, 10, true),   // force raise → over again
		admit("g-edf", 1, 50, false), // rejected while over
		remove("g-edf", 0),           // removal restores feasibility

		remove("g-rms", 4), // the unplaceable task leaves: feasible again
		wcet("g-rms", 2, 5, false),
		batch("g-rms", online.AllOrNothing, tk(1, 50), tk(1, 60)),
		batch("g-rms", online.BestEffort, tk(1, 50), tk(19, 20), tk(1, 60)),
		admit("g-rms", 12, 10, true), // ends over capacity

		admit("g-inf", 1, 10, false), // rejected: created over capacity
		remove("g-inf", 0),           // removal restores feasibility
		admit("g-inf", 1, 10, false),

		remove("g-arr", 1),
		admit("g-arr", 5, 10, false),
		repart("g-arr"),
		batch("g-bf", online.BestEffort, tk(1, 4), tk(3, 4), tk(1, 8)),
		remove("g-bf", 0),
		wcet("g-bf", 2, 1, false),
	}
	return before, after
}

// TestGoldenWALGenerate writes the golden data directory and encoded
// store into $PARTFEAS_GOLDEN_OUT; it is skipped unless that is set.
func TestGoldenWALGenerate(t *testing.T) {
	out := os.Getenv("PARTFEAS_GOLDEN_OUT")
	if out == "" {
		t.Skip("set PARTFEAS_GOLDEN_OUT to regenerate the golden WAL")
	}
	dir := filepath.Join(out, "data")
	srv := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	before, after := goldenScript()
	runScript(t, srv, before)
	if err := srv.dur.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runScript(t, srv, after)
	want := storeBytes(t, srv)
	srv.Crash()
	if err := os.WriteFile(filepath.Join(out, "state.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenWALRecovery recovers the golden data directory (a copy: a
// recovering server appends to its WAL) and byte-compares the result
// with the golden encoded store.
func TestGoldenWALRecovery(t *testing.T) {
	src := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(src, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(src, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, "data", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := mustDurable(t, dir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	_, after := goldenScript()
	if rec.dur.replayed != len(after) {
		t.Errorf("replayed %d op(s) after the snapshot, want %d", rec.dur.replayed, len(after))
	}
	if got := storeBytes(t, rec); !bytes.Equal(got, want) {
		t.Errorf("recovered store differs from the golden state:\n got %s\nwant %s", got, want)
	}
}
