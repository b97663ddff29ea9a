// Command servebench is the repository's served-admission benchmark. It
// starts the admission service in process (one replica, or a coordinator
// in front of two durable replicas), drives one named workload at it
// open loop from two client workers, checks every answer against
// library twins, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer split — as the last line of standard output:
//
//	servebench -workload sorted-cluster-wal -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, metrics and how to compare runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the number of client workers: the host has two CPUs, and
// each session must be driven by exactly one worker.
const workers = 2

// setups is how many times an untraced run sets up from scratch;
// setup_s is the median.
const setups = 9

// drainGrace is how long past a phase's end a worker that is behind
// schedule keeps sending before it drops the rest of its schedule.
const drainGrace = 25 * time.Millisecond

// Phase ids tag every op record.
const (
	phaseLatency uint8 = 1 // the fixed-rate phase end-to-end metrics come from; untraced segments of a traced run
	phaseTraced  uint8 = 2 // traced segments of a traced run
	phaseWarm    uint8 = 3
)

// traceSegments is how many untraced/traced segment pairs a traced run
// alternates.
const traceSegments = 4

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the durable replicas' files")
	spinner := flag.Bool("spin", false, "run as an idle-priority spinner child (internal)")
	stubServer := flag.Bool("stub", false, "run as the client calibration's stub server child (internal)")
	flag.Parse()
	if *spinner {
		spin()
	}
	if *stubServer {
		stub()
	}
	w, err := lookupWorkload(*wname)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("seconds %v must be positive", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("trace %d must be 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	stop, err := startSpinners(runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, logf)
	err = errors.Join(err, stop())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	w       spec
	seed    uint64
	trace   bool
	workdir string
	log     func(format string, args ...any)

	sess []*sessionInput
	st   *statelessInput

	tp       *topology
	workers  []*worker
	gens     []*sessGen
	setupLog []opRec // stateless warm-up requests
	created  []opRec // session create responses, by session

	warm, latDur time.Duration // phase plan
	setupTimes   []float64     // seconds, one per setup
	heap0        float64       // MB live before the first setup: inputs and op logs

	phaseSeq int
	rid      atomic.Int32
	slots    int
	perSess  int    // op capacity of one session's log
	hash     string // fingerprint of the generated inputs
}

// run performs one benchmark run, logging progress lines through logf,
// and returns its result line.
func run(w spec, seed uint64, dur time.Duration, trace bool, workdir string, logf func(string, ...any)) (res result, err error) {
	b, err := newBench(w, seed, dur, trace, workdir, logf)
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, b.close()) }()
	m, err := b.measure()
	if err != nil {
		return res, err
	}
	g, err := b.gate()
	if err != nil {
		return res, err
	}
	if trace {
		if err := b.perLayer(m, g); err != nil {
			return res, err
		}
	}
	res = result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}
	b.log("fail_ratio %.6g ratio (%d failed of %d attempted)", float64(g.failed)/float64(max(g.attempted, 1)), g.failed, g.attempted)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b.log("metric %-28s %14.6g %s", k, m[k].Value, m[k].Unit)
	}
	return res, nil
}

// newBench generates the run's inputs, builds the workers and their op
// logs, takes the heap baseline, sets the servers up (several times on
// an untraced run, keeping the last) and connects the workers.
// The caller must close the bench.
func newBench(w spec, seed uint64, dur time.Duration, trace bool, workdir string, logf func(string, ...any)) (_ *bench, err error) {
	installResolver()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, trace: trace, workdir: dir, log: logf}
	defer func() {
		if err != nil {
			err = errors.Join(err, b.close())
		}
	}()

	// Phase plan. Every run first warms the servers at the fixed rate
	// (caches, lazy set-up, GC pacing); those ops are checked but not
	// measured. An untraced run then spends its time at the fixed rate,
	// where the gated metrics come from. A traced run alternates
	// untraced and traced segments at the fixed rate, so drift over the
	// run cancels out of the tracing overhead.
	b.warm = min(time.Second, dur/10)
	b.latDur = dur
	n := setups
	if trace {
		b.latDur = dur / (2 * traceSegments)
		n = 1
	}
	maxOps := int(w.rate*(b.warm+dur).Seconds()) + 64
	maxOps += maxOps / 5 // Poisson counts overshoot their mean
	if err := b.buildInputs(maxOps); err != nil {
		return b, err
	}
	if trace {
		b.slots = maxOps
	}
	b.makeWorkers()
	b.heap0 = heapMB()
	for i := 0; i < n; i++ {
		if b.tp != nil {
			err := b.tp.close()
			b.tp = nil
			if err != nil {
				return b, err
			}
		}
		d, err := b.setup()
		if err != nil {
			return b, err
		}
		b.setupTimes = append(b.setupTimes, d.Seconds())
	}
	for _, wk := range b.workers {
		wk.target = b.tp.target
	}
	return b, b.warmConnections()
}

// close stops the servers and removes the run's files.
func (b *bench) close() error {
	var err error
	if b.tp != nil {
		err = b.tp.close()
		b.tp = nil
	}
	for _, wk := range b.workers {
		wk.tr.CloseIdleConnections()
	}
	return errors.Join(err, os.RemoveAll(b.workdir))
}

// measure runs the load phases. An untraced run returns the end-to-end
// metrics; a traced run returns an empty map for perLayer to fill.
func (b *bench) measure() (map[string]metric, error) {
	w := b.w
	m := map[string]metric{}
	b.logResidents("start")
	if _, err := b.runPhase(phase{id: phaseWarm, rate: w.rate, dur: b.warm}); err != nil {
		return nil, err
	}
	if !b.trace {
		var ru0, ru1 syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
		heaps := sampleHeap()
		out, err := b.runPhase(phase{id: phaseLatency, rate: w.rate, dur: b.latDur})
		if err != nil {
			return nil, err
		}
		live := heaps()
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		for i := range live {
			live[i] -= b.heap0
		}
		cpu := cpuSeconds(ru1) - cpuSeconds(ru0)
		b.log("phase latency: offered %.0f ops/s for %v, sent %d, dropped %d", w.rate, b.latDur, out.sent, out.dropped)
		b.log("live heap over the inputs and op logs (%.1f MB): %d samples, p10 %.3f, median %.3f, p90 %.3f MB",
			b.heap0, len(live), quantile(live, 0.1), median(live), quantile(live, 0.9))
		cpuPerOp := cpu * 1e6 / float64(max(out.sent, 1))
		b.logResidents("end")
		client, err := b.clientCPU(phaseLatency, min(2*time.Second, b.latDur/10))
		if err != nil {
			return nil, err
		}
		b.log("client share of cpu_us_per_op: %.1f of %.1f us (%.0f%%), from replaying the latency phase against a stub server in another process",
			client, cpuPerOp, 100*client/cpuPerOp)
		b.endToEnd(m, phaseLatency, cpuPerOp, median(live), median(b.setupTimes))
		return m, nil
	}
	for i := 0; i < traceSegments; i++ {
		out, err := b.runPhase(phase{id: phaseLatency, rate: w.rate, dur: b.latDur})
		if err != nil {
			return nil, err
		}
		b.tp.setTracing(true)
		tout, err := b.runPhase(phase{id: phaseTraced, rate: w.rate, dur: b.latDur, traced: true})
		b.tp.setTracing(false)
		if err != nil {
			return nil, err
		}
		b.log("segment %d: untraced sent %d, dropped %d; traced sent %d, dropped %d", i, out.sent, out.dropped, tout.sent, tout.dropped)
	}
	if err := spansDone(b.tp, int64(b.rid.Load())); err != nil {
		return nil, err
	}
	b.logResidents("end")
	return m, nil
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// buildInputs generates every input of the run from the seed and prints
// their fingerprint.
func (b *bench) buildInputs(maxOps int) error {
	switch b.w.kind {
	case kindStateless:
		st, err := buildStateless(b.w, b.seed, workers, maxOps)
		if err != nil {
			return err
		}
		b.st = st
	default:
		b.perSess = maxOps/b.w.sessions + 64
		for s := 0; s < b.w.sessions; s++ {
			in, err := buildSession(b.w, b.seed, s, b.perSess)
			if err != nil {
				return err
			}
			b.sess = append(b.sess, in)
		}
	}
	b.hash = inputHash(b.sess, b.st)
	b.log("servebench workload=%s seed=%d input_hash=%s", b.w.name, b.seed, b.hash)
	return nil
}

// setup starts the servers, creates the sessions preloaded to steady
// state (or warms the tester pool with the most popular instances) and
// returns how long that took.
func (b *bench) setup() (time.Duration, error) {
	bodies := make([][]byte, len(b.sess))
	for s, in := range b.sess {
		var err error
		if bodies[s], err = in.createBody(b.w.policy); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	tp, err := startTopology(b.w, b.workdir, benchBase, b.slots)
	if err != nil {
		return 0, err
	}
	b.tp = tp
	cl := newWorker(0, tp.target)
	defer cl.tr.CloseIdleConnections()
	b.created = b.created[:0]
	b.setupLog = b.setupLog[:0]
	for s := range b.sess {
		var rec opRec
		rec.rid = -1
		cl.send(&rec, http.MethodPost, "/v1/sessions", bodies[s], time.Now())
		if rec.status != http.StatusCreated {
			return 0, fmt.Errorf("creating session %d: status %d: %s", s, rec.status, cl.buf.String())
		}
		b.created = append(b.created, rec)
	}
	if b.st != nil {
		for i := 0; i < min(b.w.poolKeys, len(b.st.testBody)); i++ {
			rec := opRec{kind: opTest, inst: int16(i), alpha: 0, rid: -1}
			cl.send(&rec, http.MethodPost, "/v1/test", b.st.testBody[i][0], time.Now())
			b.setupLog = append(b.setupLog, rec)
		}
	}
	d := time.Since(start)
	if b.w.kind == kindCluster {
		var owned [2]int
		for _, rec := range b.created {
			if rec.shard >= 0 {
				owned[rec.shard]++
			}
		}
		if owned[0] == 0 || owned[1] == 0 {
			return 0, fmt.Errorf("session placement %v leaves a replica without sessions", owned)
		}
	}
	return d, nil
}

// sessionID is the ID the server gives session s: the coordinator's
// prefix in the cluster, the replica's own counter otherwise.
func (b *bench) sessionID(s int) string {
	if b.w.kind == kindCluster {
		return fmt.Sprintf("%s-%d", clusterIDPrefix, s+1)
	}
	return fmt.Sprintf("s-%d", s+1)
}

// makeWorkers builds the workers and their op logs; newBench points
// them at the servers once they are set up. Session s is driven by
// worker s mod workers.
func (b *bench) makeWorkers() {
	b.workers = nil
	b.gens = nil
	for i := 0; i < workers; i++ {
		wk := newWorker(i, "")
		wk.st = b.st
		b.workers = append(b.workers, wk)
	}
	for s, in := range b.sess {
		d := newSessGen(b.sessionID(s), in, b.w.forceMod, b.perSess)
		b.gens = append(b.gens, d)
		wk := b.workers[s%workers]
		wk.sess = append(wk.sess, d)
	}
	if b.st != nil {
		for _, wk := range b.workers {
			wk.statLog = make([]opRec, 0, len(b.st.ops[wk.id]))
		}
	}
}

func (b *bench) logResidents(when string) {
	if len(b.gens) == 0 {
		return
	}
	line := "residents " + when + ":"
	for _, d := range b.gens {
		line += fmt.Sprintf(" %s=%d", d.id, len(d.resident))
	}
	b.log("%s", line)
}

// heapMB is the live heap after forced collections. The second
// collection frees what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	return liveHeapMB()
}

// liveHeapMB is the heap the last collection found live.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// sampleHeap records the live heap at the end of every collection, by
// polling the runtime's GC counter, until the returned function is
// called. That function adds one sample from forced collections and
// returns them all. A single sample would catch the tester pool and the
// sessions' resident counts at one arbitrary moment; the collections the
// load triggers on its own give many moments, without stopping the load.
func sampleHeap() func() []float64 {
	done, finished := make(chan struct{}), make(chan struct{})
	var out []float64
	go func() {
		defer close(finished)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				out = append(out, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return append(out, heapMB())
	}
}
