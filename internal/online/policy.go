package online

// Placement policies: the machine-selection half of the engine's
// admission decision, extracted behind the Policy interface so
// alternative fit heuristics (best-fit, worst-fit, k-choices, periodic
// repartition) can race on the same engine machinery.
//
// The engine distinguishes exactly one ordered policy — FirstFitSorted,
// the paper's utilization-descending first-fit — whose state is a pure
// function of the resident multiset and whose interior mutations run
// through the checkpointed suffix replay. Every other policy is local:
// tasks are placed on arrival by one Select call against current
// aggregates and earlier placements are never revisited, so mutations
// are O(m) worst case with no replay. That split keeps the zero-alloc
// tail path and the replay machinery policy-agnostic: replay semantics
// are first-fit by construction and only the ordered policy uses them,
// while local policies plug in solely at the Select sites (initial
// placement, tail admits, local WCET re-admission).

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Policy chooses the machine a task is placed on. Implementations must
// be stateless and deterministic: the same View and task id must always
// yield the same machine, or restore/replay equivalence breaks. The
// built-in constructors (FirstFitSorted, FirstFitArrival, BestFit,
// WorstFit, KChoices, PeriodicRepartition) are the supported set; the
// engine's differential guarantees are stated per policy.
type Policy interface {
	// Name is the policy's canonical wire name (ParsePolicy inverse).
	Name() string
	// Ordered reports whether the policy maintains the paper's sorted
	// placement order. Exactly FirstFitSorted is ordered; ordered
	// engines replay interior mutations, local engines never do.
	Ordered() bool
	// Select returns the machine (input index) for task id against the
	// engine's current aggregates, or -1 when no machine admits it.
	// Select must not mutate engine state beyond what View's query
	// methods do internally (capacity-tree refresh, probe memoization).
	Select(v View, id int32) int
}

// View is the read-only window a Policy sees of the engine at selection
// time. Machines are exposed in scan order (speed-ascending, the
// paper's machine order); all queries answer against current
// aggregates, i.e. the machine states a tail placement folds onto.
type View struct{ e *Engine }

// Machines returns the number of machines.
func (v View) Machines() int { return len(v.e.machIdx) }

// MachineAt returns the input index of the machine at scan position pp.
func (v View) MachineAt(pp int) int { return v.e.machIdx[pp] }

// Util returns task id's utilization at the engine's augmentation.
func (v View) Util(id int32) float64 { return v.e.utils[id] }

// TaskParams returns task id's WCET and period (hash inputs for
// stateless randomized policies).
func (v View) TaskParams(id int32) (wcet, period int64) {
	t := v.e.tasks[id]
	return t.WCET, t.Period
}

// Fits answers the engine's admission query for task id on machine j —
// character-for-character the predicate first-fit runs.
func (v View) Fits(j int, id int32) bool { return v.e.fitsAgg(j, id) }

// Slack returns machine j's one-more-task capacity estimate (the same
// slack-inflated quantity the capacity tree keys on): the largest
// utilization the machine's admission bound still has room for, plus a
// vanishing tie-break slack. Deterministic, and monotone in load.
func (v View) Slack(j int) float64 { return v.e.nextCap(j) }

// Load returns machine j's current utilization fold.
func (v View) Load(j int) float64 { return v.e.machs[j].load() }

// Speed returns machine j's α-scaled speed.
func (v View) Speed(j int) float64 { return v.e.speeds[j] }

// FirstFit returns the first machine in scan order that admits task id
// (the capacity-tree probe with exact re-verification), or -1.
func (v View) FirstFit(id int32) int { return v.e.firstFitAgg(id) }

// firstFitSorted is the paper's policy: utilization-descending task
// order, speed-ascending first-fit. The engine's state under it is
// byte-identical to a fresh partition solve over the resident multiset.
type firstFitSorted struct{}

// FirstFitSorted returns the paper's sorted first-fit policy — the only
// ordered policy, and the default. Engines under it are byte-identical
// to fresh sorted solves (the pre-Policy sorted-order behavior).
func FirstFitSorted() Policy { return firstFitSorted{} }

func (firstFitSorted) Name() string                { return "first_fit_sorted" }
func (firstFitSorted) Ordered() bool               { return true }
func (firstFitSorted) Select(v View, id int32) int { return v.FirstFit(id) }

// firstFitArrival places each task on the first machine that admits it,
// in arrival order, never revisiting earlier placements — the
// pre-Policy arrival-order behavior.
type firstFitArrival struct{}

// FirstFitArrival returns local first-fit in arrival order (the
// pre-Policy arrival-order behavior, byte-identical).
func FirstFitArrival() Policy { return firstFitArrival{} }

func (firstFitArrival) Name() string                { return "first_fit_arrival" }
func (firstFitArrival) Ordered() bool               { return false }
func (firstFitArrival) Select(v View, id int32) int { return v.FirstFit(id) }

// bestFit packs tightly: among admitting machines, the one with the
// least remaining one-more-task capacity (first in scan order on ties).
type bestFit struct{}

// BestFit returns the best-fit policy: the admitting machine with the
// smallest Slack, i.e. the tightest bin. Local (arrival-order) placement.
func BestFit() Policy { return bestFit{} }

func (bestFit) Name() string  { return "best_fit" }
func (bestFit) Ordered() bool { return false }

func (bestFit) Select(v View, id int32) int {
	best, bestSlack := -1, math.Inf(1)
	for pp, m := 0, v.Machines(); pp < m; pp++ {
		j := v.MachineAt(pp)
		if !v.Fits(j, id) {
			continue
		}
		if s := v.Slack(j); s < bestSlack {
			best, bestSlack = j, s
		}
	}
	return best
}

// worstFit balances: among admitting machines, the one with the most
// remaining one-more-task capacity (first in scan order on ties).
type worstFit struct{}

// WorstFit returns the worst-fit policy: the admitting machine with the
// largest Slack, i.e. the emptiest bin. Local (arrival-order) placement.
func WorstFit() Policy { return worstFit{} }

func (worstFit) Name() string  { return "worst_fit" }
func (worstFit) Ordered() bool { return false }

func (worstFit) Select(v View, id int32) int {
	best, bestSlack := -1, math.Inf(-1)
	for pp, m := 0, v.Machines(); pp < m; pp++ {
		j := v.MachineAt(pp)
		if !v.Fits(j, id) {
			continue
		}
		if s := v.Slack(j); s > bestSlack {
			best, bestSlack = j, s
		}
	}
	return best
}

// kChoices is the power-of-d-choices policy: d pseudo-random candidate
// machines drawn by a stateless hash of the task's identity, the
// emptiest admitting candidate wins, full first-fit as the fallback
// when no candidate admits (so the policy never rejects a task some
// machine could take). Statelessness — the hash reads only (id, WCET,
// period, trial, m) — keeps the decision a pure function of engine
// state, which is what lets snapshots restore and differential twins
// replay bit-identically without carrying RNG state.
type kChoices struct{ d int }

// KChoices returns the power-of-d-choices policy; d < 2 is clamped to 2
// (the classic power-of-two-choices).
func KChoices(d int) Policy {
	if d < 2 {
		d = 2
	}
	return kChoices{d: d}
}

func (k kChoices) Name() string {
	if k.d == 2 {
		return "k_choices"
	}
	return "k_choices_" + strconv.Itoa(k.d)
}

func (kChoices) Ordered() bool { return false }

func (k kChoices) Select(v View, id int32) int {
	m := v.Machines()
	w, p := v.TaskParams(id)
	seed := mix64(uint64(id)<<32 ^ uint64(w)*0x9E3779B97F4A7C15 ^ uint64(p))
	best, bestSlack := -1, math.Inf(-1)
	for t := 0; t < k.d; t++ {
		pp := int(mix64(seed+uint64(t)*0xBF58476D1CE4E5B9) % uint64(m))
		j := v.MachineAt(pp)
		if j == best || !v.Fits(j, id) {
			continue
		}
		if s := v.Slack(j); s > bestSlack {
			best, bestSlack = j, s
		}
	}
	if best >= 0 {
		return best
	}
	return v.FirstFit(id)
}

// mix64 is the SplitMix64 finalizer: a stateless avalanche over the
// candidate index so k-choices draws are deterministic functions of the
// task, not of any per-engine RNG stream.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// periodicRepartition wraps an inner local policy and, every `every`
// successful top-level mutations, folds the drift back: the engine
// plans a fresh sorted-first-fit repartition and applies it in full.
// Placement decisions between repartitions are the inner policy's.
type periodicRepartition struct {
	inner Policy
	every int
}

// PeriodicRepartition wraps inner with a full repartition to the
// paper's sorted first-fit after every `every` successful mutations
// (every < 1 is clamped to 1). The wrapped engine is local — earlier
// placements move only at repartition points — and the repair is
// best-effort: an infeasible or stale target leaves the current
// placement standing. Not supported on constrained-deadline engines
// (their reference solve is dbf.FirstFit; PlanRepartition refuses).
func PeriodicRepartition(inner Policy, every int) Policy {
	if every < 1 {
		every = 1
	}
	return periodicRepartition{inner: inner, every: every}
}

func (p periodicRepartition) Name() string {
	return p.inner.Name() + "+repartition_" + strconv.Itoa(p.every)
}

func (p periodicRepartition) Ordered() bool               { return false }
func (p periodicRepartition) Select(v View, id int32) int { return p.inner.Select(v, id) }

// repartitionEvery is the unexported marker NewEngine uses to arm the
// engine's post-commit repartition hook.
func (p periodicRepartition) repartitionEvery() int { return p.every }

type repartitioning interface{ repartitionEvery() int }

// policyNames is the canonical wire-name set, in documentation order.
const policyNames = "first_fit_sorted, first_fit_arrival, best_fit, worst_fit, k_choices"

// PolicyNames returns the canonical policy wire names accepted by
// ParsePolicy, for help strings and error messages.
func PolicyNames() string { return policyNames }

// ParsePolicy resolves a policy wire name. The empty string and the
// legacy order names "sorted" / "arrival" (what pre-Policy WALs and
// snapshots recorded) resolve to first_fit_sorted / first_fit_arrival;
// "k_choices_<d>" selects a non-default choice count, and a
// "<inner>+repartition_<n>" suffix wraps any non-ordered policy in
// PeriodicRepartition with cadence n — the grammar round-trips every
// Policy's Name().
func ParsePolicy(name string) (Policy, error) {
	if inner, rest, ok := strings.Cut(name, "+repartition_"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("unknown placement policy %q: repartition cadence %q must be a positive integer", name, rest)
		}
		ip, err := ParsePolicy(inner)
		if err != nil {
			return nil, err
		}
		if ip.Ordered() {
			return nil, fmt.Errorf("unknown placement policy %q: %s already tracks the sorted solve; repartition would be a no-op", name, ip.Name())
		}
		return PeriodicRepartition(ip, n), nil
	}
	switch name {
	case "", "first_fit_sorted", "sorted":
		return FirstFitSorted(), nil
	case "first_fit_arrival", "arrival":
		return FirstFitArrival(), nil
	case "best_fit":
		return BestFit(), nil
	case "worst_fit":
		return WorstFit(), nil
	case "k_choices":
		return KChoices(2), nil
	}
	if rest, ok := strings.CutPrefix(name, "k_choices_"); ok {
		if d, err := strconv.Atoi(rest); err == nil && d >= 2 {
			return KChoices(d), nil
		}
	}
	return nil, fmt.Errorf("unknown placement policy %q (want one of %s)", name, policyNames)
}
