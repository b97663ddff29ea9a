package main

import (
	"sort"

	"partfeas/internal/stats"
)

// quantile returns the p-quantile of xs (sorting a copy).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// recs returns every op of the given phase, across sessions and workers.
func (b *bench) recs(ph uint8) []*opRec {
	var out []*opRec
	add := func(log []opRec) {
		for i := range log {
			if log[i].phase == ph {
				out = append(out, &log[i])
			}
		}
	}
	for _, d := range b.gens {
		add(d.log)
	}
	for _, wk := range b.workers {
		add(wk.statLog)
	}
	return out
}

// latenciesUS is each op's time from when it was due to its response.
func latenciesUS(rs []*opRec, keep func(*opRec) bool) []float64 {
	var xs []float64
	for _, r := range rs {
		if keep == nil || keep(r) {
			xs = append(xs, float64(r.done-r.due)/1e3)
		}
	}
	return xs
}

// endToEnd fills the end-to-end metrics from latency phase ph and logs
// the figures behind them and the ungated ones: sample counts, pooled
// quantiles, the p50 and p90 of every second, the tails, the
// send-to-answer time and the generator's lag.
func (b *bench) endToEnd(m map[string]metric, ph uint8, cpuPerOp, heapMB, setupS float64) {
	rs := b.recs(ph)
	isAdmit := func(r *opRec) bool { return r.kind.isAdmit() }
	m["setup_s"] = metric{setupS, "s"}
	m["op_p50_us"] = metric{windowed(rs, 0.5, nil), "us"}
	m["admit_p50_us"] = metric{windowed(rs, 0.5, isAdmit), "us"}
	m["cpu_us_per_op"] = metric{cpuPerOp, "us"}
	m["live_heap_mb"] = metric{heapMB, "MB"}

	all, adm := latenciesUS(rs, nil), latenciesUS(rs, isAdmit)
	var svc []float64
	for _, r := range rs {
		svc = append(svc, float64(r.done-r.sent)/1e3)
	}
	lag := b.genLagUS(ph)
	b.log("samples: %d ops, %d admits in the latency phase", len(all), len(adm))
	b.log("pooled: op p50 %.1f us, admit p50 %.1f us", quantile(all, 0.5), quantile(adm, 0.5))
	b.log("op p50 by second of the latency phase: %.0f", windows(rs, 0.5, nil))
	b.log("op p90 by second of the latency phase: %.0f", windows(rs, 0.9, nil))
	b.log("tails (not gated, see README): op p90 %.1f us, admit p90 %.1f us (median of per-second p90s); op p99 %.1f us, admit p99 %.1f us (pooled)",
		windowed(rs, 0.9, nil), windowed(rs, 0.9, isAdmit), quantile(all, 0.99), quantile(adm, 0.99))
	b.log("send-to-answer p50 %.1f us, p99 %.1f us; generator lag p50 %.1f us, p99 %.1f us (%d idle sends)",
		quantile(svc, 0.5), quantile(svc, 0.99), quantile(lag, 0.5), quantile(lag, 0.99), len(lag))
}

// windows splits the phase's ops into whole seconds of due time and
// returns the p-quantile latency of each second that kept keep.
func windows(rs []*opRec, p float64, keep func(*opRec) bool) []float64 {
	if len(rs) == 0 {
		return nil
	}
	t0 := rs[0].due
	for _, r := range rs {
		t0 = min(t0, r.due)
	}
	var wins [][]*opRec
	for _, r := range rs {
		i := int((r.due - t0) / 1e9)
		for len(wins) <= i {
			wins = append(wins, nil)
		}
		wins[i] = append(wins[i], r)
	}
	var qs []float64
	for _, w := range wins {
		if xs := latenciesUS(w, keep); len(xs) > 0 {
			qs = append(qs, quantile(xs, p))
		}
	}
	return qs
}

// windowed is the median over the phase's seconds of each second's
// p-quantile latency: a burst of host stalls moves the seconds it hits,
// not the median of all of them.
func windowed(rs []*opRec, p float64, keep func(*opRec) bool) float64 {
	return median(windows(rs, p, keep))
}
