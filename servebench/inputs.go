package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"partfeas"
	"partfeas/internal/arena"
	"partfeas/internal/online"
	"partfeas/internal/service"
	"partfeas/internal/workload"
)

// Stream shape shared by every session workload: arrivals per tick,
// how many mean lifetimes of warm-up the preload simulates, and the
// log-uniform period range.
const (
	arrivalsPerTick = 4.0
	warmLifetimes   = 5
	periodLo        = 100
	periodHi        = 100000
)

// event is one step of a session's input: a tenant arriving (admit) or
// departing (remove, skipped when the tenant is not resident).
type event struct {
	depart bool
	seq    int32
}

// update is a WCET update drawn after a stream event: the resident at
// position floor(pick·n) gets the WCET of utilization util.
type update struct {
	pick, util float64
}

// sessionInput is everything one session's op generator and twin consume.
// It is a pure function of the workload, the seed and the session index.
type sessionInput struct {
	speeds  []float64
	tasks   []partfeas.Task // by tenant arrival number
	events  []event         // measured phase, in stream order
	updates []update        // parallel to events, nil when the workload updates nothing; util 0 means none
	preload []int           // tenants resident when the measured phase starts, in task order
}

// update is the WCET update that follows event i, if any.
func (in *sessionInput) update(i int) update {
	if in.updates == nil {
		return update{}
	}
	return in.updates[i]
}

func taskName(seq int) string { return "a" + strconv.Itoa(seq) }

// buildSession materializes session s's input: an arena stream long
// enough for maxOps operations, the resident set a policy engine holds
// after warmLifetimes mean lifetimes of that stream (the preload), and
// the seeded WCET-update draws.
func buildSession(w spec, seed uint64, s, maxOps int) (*sessionInput, error) {
	life := float64(w.residents) / arrivalsPerTick
	warm := int(warmLifetimes * life)
	// Each tick carries about 2·arrivalsPerTick events, and at steady
	// state an event yields about one op.
	ticks := warm + int(1.1*float64(maxOps)/(2*arrivalsPerTick)) + 16
	sc := arena.Scenario{
		Seed:         mix(seed, uint64(s), 1),
		Ticks:        ticks,
		Machines:     w.machines,
		Speeds:       "big.LITTLE",
		Arrival:      arena.ArrivalSpec{Kind: "poisson", Rate: arrivalsPerTick},
		Util:         arena.UtilSpec{Kind: "uniform", Lo: w.utilLo, Hi: w.utilHi},
		PeriodLo:     periodLo,
		PeriodHi:     periodHi,
		MeanLifetime: life,
	}
	st, err := arena.BuildStream(sc)
	if err != nil {
		return nil, err
	}
	in := &sessionInput{tasks: make([]partfeas.Task, st.Arrivals)}
	for _, m := range st.Platform {
		in.speeds = append(in.speeds, m.Speed)
	}
	pol, err := online.ParsePolicy(w.policy)
	if err != nil {
		return nil, err
	}
	adm, err := partfeas.EDF.Admission()
	if err != nil {
		return nil, err
	}
	plat := partfeas.NewPlatform(in.speeds...)

	// The preload replays the warm-up ticks through an engine of the
	// session's policy, so the measured phase starts from a resident set
	// the policy itself chose, at steady state.
	var eng *online.Engine
	var res []int
	rng := workload.NewRNG(mix(seed, uint64(s), 2))
	for _, ev := range st.Events {
		switch ev.Kind {
		case arena.EvAdmit:
			t := partfeas.Task{Name: taskName(ev.Seq), WCET: ev.Task.WCET, Period: ev.Task.Period}
			in.tasks[ev.Seq] = t
			if ev.Tick >= warm {
				in.events = append(in.events, event{seq: int32(ev.Seq)})
				break
			}
			if eng == nil {
				if eng, err = online.NewEngine(partfeas.TaskSet{t}, plat, online.Options{Policy: pol, Admission: adm}); err == nil {
					res = append(res, ev.Seq)
				}
				break
			}
			if _, ok, err := eng.Admit(t); err != nil {
				return nil, err
			} else if ok {
				res = append(res, ev.Seq)
			}
		case arena.EvDepart:
			if ev.Tick >= warm {
				in.events = append(in.events, event{depart: true, seq: int32(ev.Seq)})
				break
			}
			i := indexOf(res, ev.Seq)
			if i < 0 || len(res) == 1 {
				break
			}
			// A sorted engine may refuse a removal whose shrunken set
			// re-solves infeasible; the tenant then simply stays.
			if _, ok, err := eng.Remove(i); err != nil {
				return nil, err
			} else if ok {
				res = append(res[:i], res[i+1:]...)
			}
		default:
			return nil, fmt.Errorf("unexpected stream event %v", ev.Kind)
		}
	}
	if len(in.events) < maxOps {
		return nil, fmt.Errorf("session %d: stream has %d measured events, want at least %d", s, len(in.events), maxOps)
	}
	in.preload = res
	if w.updateShare > 0 {
		in.updates = make([]update, len(in.events))
		for i := range in.updates {
			if rng.Float64() < w.updateShare {
				in.updates[i] = update{pick: rng.Float64(), util: rng.Range(w.utilLo, w.utilHi)}
			}
		}
	}
	return in, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// platform is the session's machines as the server builds them from
// the create request's speeds.
func (in *sessionInput) platform() partfeas.Platform { return partfeas.NewPlatform(in.speeds...) }

// preloadTasks is the resident set the session is created with.
func (in *sessionInput) preloadTasks() partfeas.TaskSet {
	ts := make(partfeas.TaskSet, len(in.preload))
	for i, seq := range in.preload {
		ts[i] = in.tasks[seq]
	}
	return ts
}

func (in *sessionInput) createBody(policy string) ([]byte, error) {
	req := service.CreateSessionRequest{Placement: policy}
	req.Speeds = in.speeds
	for _, t := range in.preloadTasks() {
		req.Tasks = append(req.Tasks, service.TaskJSON{Name: t.Name, WCET: t.WCET, Period: t.Period})
	}
	return json.Marshal(req)
}

// statOp is one stateless request: instance inst at paperAlphas[alpha],
// or /v1/minalpha when alpha is -1.
type statOp struct {
	inst  int16
	alpha int8
}

// statelessInput is the instance set, its encoded request bodies, and
// each worker's pre-drawn request sequence.
type statelessInput struct {
	testBody [][][]byte // [instance][alpha]
	minBody  [][]byte   // [instance], most popular first
	ops      [][]statOp // [worker]
}

var statelessFamilies = []workload.SpeedFamily{workload.SpeedsUniform, workload.SpeedsBigLittle, workload.SpeedsIdentical}

// buildStateless draws w.instances distinct instances (n in [nLo, nHi],
// m in {8, 16, 32, 64}, three speed families, total utilization 55–95%
// of platform capacity where n allows) and a Zipf(1) popularity over
// them.
func buildStateless(w spec, seed uint64, workers, maxOps int) (*statelessInput, error) {
	rng := workload.NewRNG(mix(seed, 0, 3))
	si := &statelessInput{}
	for i := 0; i < w.instances; i++ {
		// Instance i is the i-th most popular. Its size and platform
		// shape are fixed by its rank (n on a golden-ratio sequence over
		// [nLo, nHi]); the seed draws its speeds, utilizations and
		// periods. Drawing sizes from the seed made a run's mean cost
		// hinge on how large its few most popular instances happened to
		// be, and moved op_p50_us by 2× between seeds.
		n := w.nLo + int(math.Mod(float64(i)*0.6180339887498949+0.5, 1)*float64(w.nHi-w.nLo+1))
		m := 8 << (i % 4)
		plat, err := statelessFamilies[i%len(statelessFamilies)].Platform(rng, m)
		if err != nil {
			return nil, err
		}
		capSum, maxSpeed := 0.0, 0.0
		for _, mc := range plat {
			capSum += mc.Speed
			maxSpeed = math.Max(maxSpeed, mc.Speed)
		}
		// Capping the total at n·maxSpeed/8 keeps UUniFastCapped's
		// rejection sampling quick when few tasks share many machines.
		total := math.Min(rng.Range(0.55, 0.95)*capSum, float64(n)*maxSpeed/8)
		us, err := workload.UUniFastCapped(rng, n, total, maxSpeed)
		if err != nil {
			return nil, err
		}
		periods := make([]int64, n)
		for j := range periods {
			if periods[j], err = workload.LogUniformPeriod(rng, 10, periodHi); err != nil {
				return nil, err
			}
		}
		ts, err := workload.TasksFromUtilizations(us, periods, 0)
		if err != nil {
			return nil, err
		}
		var ir service.InstanceRequest
		for _, t := range ts {
			ir.Tasks = append(ir.Tasks, service.TaskJSON{Name: t.Name, WCET: t.WCET, Period: t.Period})
		}
		for _, mc := range plat {
			ir.Speeds = append(ir.Speeds, mc.Speed)
		}
		bodies := make([][]byte, len(paperAlphas))
		for a, alpha := range paperAlphas {
			if bodies[a], err = json.Marshal(service.TestRequest{InstanceRequest: ir, Alpha: alpha}); err != nil {
				return nil, err
			}
		}
		mb, err := json.Marshal(service.MinAlphaRequest{InstanceRequest: ir})
		if err != nil {
			return nil, err
		}
		si.testBody = append(si.testBody, bodies)
		si.minBody = append(si.minBody, mb)
	}

	// Zipf(1) popularity by rank.
	cdf := make([]float64, w.instances)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	si.ops = make([][]statOp, workers)
	for k := range si.ops {
		ops := make([]statOp, maxOps/workers+1)
		for i := range ops {
			r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			if r >= len(cdf) {
				r = len(cdf) - 1
			}
			op := statOp{inst: int16(r), alpha: -1}
			if rng.Float64() >= w.minAlphaShare {
				op.alpha = int8(rng.Intn(len(paperAlphas)))
			}
			ops[i] = op
		}
		si.ops[k] = ops
	}
	return si, nil
}

// mix derives an independent 64-bit seed from the run seed and two
// labels (SplitMix64 finalizer), so each session and phase draws from
// its own stream.
func mix(seed, a, b uint64) uint64 {
	z := seed ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputHash fingerprints every generated input byte: two runs with the
// same hash fed the servers identical tasks, platforms, update draws,
// instances and request sequences.
func inputHash(sess []*sessionInput, st *statelessInput) string {
	h := fnv.New64a()
	for _, in := range sess {
		putFloats(h, in.speeds)
		for _, t := range in.tasks {
			putInts(h, t.WCET, t.Period)
		}
		for i, ev := range in.events {
			d := int64(0)
			if ev.depart {
				d = 1
			}
			putInts(h, d, int64(ev.seq))
			u := in.update(i)
			putFloats(h, []float64{u.pick, u.util})
		}
		for _, seq := range in.preload {
			putInts(h, int64(seq))
		}
	}
	if st != nil {
		for i := range st.testBody {
			for _, b := range st.testBody[i] {
				h.Write(b)
			}
			h.Write(st.minBody[i])
		}
		for _, ops := range st.ops {
			for _, op := range ops {
				putInts(h, int64(op.inst), int64(op.alpha))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func putInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func putFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
