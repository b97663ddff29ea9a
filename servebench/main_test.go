package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the client calibration's
// stub server child, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-stub" {
		stub()
	}
	os.Exit(m.Run())
}

// tiny shrinks a named workload to test scale: small sessions and
// instances, low rates.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.machines, w.residents = 8, 60
	w.instances, w.nLo, w.nHi, w.poolKeys = 6, 20, 60, 3
	w.rate = 200
	if w.kind == kindCluster {
		w.utilHi = 0.3 // keep rejections, and so forced admits, at n=60
	}
	return w
}

const tinyDur = 1500 * time.Millisecond

func newTiny(t *testing.T, name string, seed uint64, trace bool) *bench {
	t.Helper()
	b, err := newBench(tiny(t, name), seed, tinyDur, trace, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := b.close(); err != nil {
			t.Error(err)
		}
	})
	return b
}

// contract is the metric list BENCHMARK.json declares.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMetricsMatchContract runs every workload untraced and traced at
// tiny scale and checks that each emits exactly the metrics
// BENCHMARK.json declares, with their units, and passes its gate.
func TestMetricsMatchContract(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			res, err := run(tiny(t, w.name), 7, tinyDur, trace, t.TempDir(), t.Logf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract has %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, contract %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestGateRejectsCorruptTwin checks that the correctness gate fails a
// run whose twin replays a different op than the server answered.
func TestGateRejectsCorruptTwin(t *testing.T) {
	for _, name := range []string{"arrival-direct", "sorted-cluster-wal"} {
		b := newTiny(t, name, 3, false)
		if _, err := b.measure(); err != nil {
			t.Fatal(err)
		}
		g, err := b.gate()
		if err != nil {
			t.Fatal(err)
		}
		if g.failed != 0 {
			t.Fatalf("%s: clean run failed %d of %d", name, g.failed, g.attempted)
		}
		// Inflate the task of the first admit the server accepted: the
		// twin now rejects it, or at least places it differently.
		d := b.gens[0]
		corrupted := false
		for i := range d.log {
			r := &d.log[i]
			if r.kind == opAdmit && r.admitted {
				task := &d.in.tasks[r.arg]
				task.WCET = task.Period
				corrupted = true
				break
			}
		}
		if !corrupted {
			t.Fatalf("%s: no admit to corrupt", name)
		}
		if g, err = b.gate(); err != nil {
			t.Fatal(err)
		}
		if g.failed == 0 {
			t.Errorf("%s: gate passed a corrupted twin", name)
		}
	}
}

// TestGateRejectsCorruptAnswer checks the other direction: a served
// answer that differs from the twin fails the gate.
func TestGateRejectsCorruptAnswer(t *testing.T) {
	b := newTiny(t, "stateless-test", 4, false)
	if _, err := b.measure(); err != nil {
		t.Fatal(err)
	}
	b.workers[1].statLog[0].sum ^= 1
	g, err := b.gate()
	if err != nil {
		t.Fatal(err)
	}
	if g.failed != 1 {
		t.Errorf("gate counted %d failures for one corrupted answer", g.failed)
	}
}

// TestInputHash checks that the seed alone determines the inputs.
func TestInputHash(t *testing.T) {
	for _, name := range []string{"arrival-direct", "sorted-cluster-wal", "stateless-test"} {
		hash := func(seed uint64) string {
			b := &bench{w: tiny(t, name), seed: seed, log: t.Logf}
			if err := b.buildInputs(2000); err != nil {
				t.Fatal(err)
			}
			return b.hash
		}
		a, again, other := hash(1), hash(1), hash(2)
		if a != again {
			t.Errorf("%s: seed 1 hashed %s then %s", name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 both hashed %s", name, a)
		}
	}
}

// TestSpansPairAcrossHop checks that every traced op of the cluster
// workload has a coordinator span and a replica span under the same
// rid, nested inside each other and inside the client's own interval.
func TestSpansPairAcrossHop(t *testing.T) {
	b := newTiny(t, "sorted-cluster-wal", 5, true)
	if _, err := b.measure(); err != nil {
		t.Fatal(err)
	}
	traced := b.recs(phaseTraced)
	if len(traced) == 0 {
		t.Fatal("no traced ops")
	}
	var perReplica [2]int
	for _, r := range traced {
		cs, ce, ok := b.tp.coTrace.span(int(r.rid))
		if !ok {
			t.Fatalf("rid %d: no coordinator span", r.rid)
		}
		found := 0
		for i, tr := range b.tp.repTrace {
			rs, re, ok := tr.span(int(r.rid))
			if !ok {
				continue
			}
			found++
			perReplica[i]++
			if !(r.sent <= cs && cs <= rs && rs <= re && re <= ce && ce <= r.done) {
				t.Errorf("rid %d: client [%d,%d] coordinator [%d,%d] replica %d [%d,%d] do not nest",
					r.rid, r.sent, r.done, cs, ce, i, rs, re)
			}
		}
		if found != 1 {
			t.Errorf("rid %d: %d replica spans, want 1", r.rid, found)
		}
	}
	if perReplica[0] == 0 || perReplica[1] == 0 {
		t.Errorf("replica span counts %v: both replicas must serve traced ops", perReplica)
	}
	for _, r := range b.recs(phaseLatency) {
		if r.rid != -1 {
			t.Fatalf("untraced op carries rid %d", r.rid)
		}
	}
}
