package main

import (
	"fmt"
	"sort"
)

// perLayer fills the per-layer metrics of a traced run. Client and
// handler times come from the spans of the traced phase (2); layer times
// come from the twin replays of the same ops. Metrics of a layer the
// workload does not reach read 0.
func (b *bench) perLayer(m map[string]metric, g *gateOut) error {
	ops := g.traced
	if len(ops) == 0 {
		return fmt.Errorf("per-layer split: no traced ops")
	}
	var client, handler, transport, hop, eng, respB, reqB, dec, enc, twin []float64
	var build, solve, minA, visited []float64
	var reps [2]int
	hits, infeasible, admits, accepted, engAdmits, interior := 0, 0, 0, 0, 0, 0
	var walOps []*opTwin
	for _, o := range ops {
		r := o.rec
		c := float64(r.done-r.sent) / 1e3
		h, found := 0.0, false
		for i, t := range b.tp.repTrace {
			if s, e, ok := t.span(int(r.rid)); ok {
				h, found = float64(e-s)/1e3, true
				reps[i]++
			}
		}
		if !found {
			return fmt.Errorf("per-layer split: no replica span for rid %d", r.rid)
		}
		client = append(client, c)
		handler = append(handler, h)
		if co := b.tp.coTrace; co != nil {
			s, e, ok := co.span(int(r.rid))
			if !ok {
				return fmt.Errorf("per-layer split: no coordinator span for rid %d", r.rid)
			}
			transport = append(transport, c-float64(e-s)/1e3)
			hop = append(hop, c-h)
		} else {
			transport = append(transport, c-h)
		}
		respB = append(respB, float64(r.respLen))
		reqB = append(reqB, float64(r.reqLen))
		dec = append(dec, float64(o.decodeNS)/1e3)
		enc = append(enc, float64(o.encodeNS)/1e3)
		if r.hit {
			hits++
		}
		if o.infeasible {
			infeasible++
		}
		if o.buildNS > 0 {
			build = append(build, float64(o.buildNS)/1e3)
		}
		if o.solveNS > 0 {
			solve = append(solve, float64(o.solveNS)/1e3)
		}
		if o.minNS > 0 {
			minA = append(minA, float64(o.minNS)/1e3)
		}
		if o.onEngine {
			eng = append(eng, float64(o.engNS)/1e3)
			visited = append(visited, float64(o.stats.Visited))
			if r.kind == opAdmit {
				engAdmits++
				if !o.stats.Tail {
					interior++
				}
			}
		}
		if r.kind == opAdmit && !r.force {
			admits++
			if o.admitted {
				accepted++
			}
		}
		if o.wal != nil && b.w.kind == kindCluster {
			walOps = append(walOps, o)
		}
	}
	syncUS, walBytes := 0.0, 0.0
	if len(walOps) > 0 {
		var err error
		if syncUS, walBytes, err = b.replayWAL(walOps); err != nil {
			return err
		}
	}
	var appendUS []float64
	for _, o := range walOps {
		appendUS = append(appendUS, float64(o.walNS)/1e3)
	}
	for _, o := range ops {
		twin = append(twin, float64(o.totalNS())/1e3)
	}

	n := float64(len(ops))
	share := func(k, of int) float64 {
		if of == 0 {
			return 0
		}
		return float64(k) / float64(of)
	}
	residual := mean(handler) - mean(twin)
	repMin := 0.0
	if b.w.kind == kindCluster {
		repMin = float64(min(reps[0], reps[1])) / n
	}
	untraced := median(latenciesUS(b.recs(phaseLatency), nil))
	traced := median(latenciesUS(b.recs(phaseTraced), nil))

	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("service.resp_bytes_per_op", mean(respB), "bytes")
	set("service.req_bytes_per_op", mean(reqB), "bytes")
	set("service.encode_us", mean(enc), "us")
	set("service.decode_us", mean(dec), "us")
	set("service.transport_p50_us", quantile(transport, 0.5), "us")
	set("service.handler_p50_us", quantile(handler, 0.5), "us")
	set("service.handler_p99_us", quantile(handler, 0.99), "us")
	set("service.residual_us", residual, "us")
	set("service.infeasible_share", share(infeasible, len(ops)), "ratio")
	poolHit := 0.0
	if b.st != nil {
		poolHit = share(hits, len(ops))
	}
	set("service.pool_hit_ratio", poolHit, "ratio")
	set("partition.build_us", mean(build), "us")
	set("partition.solve_us", mean(solve), "us")
	set("partfeas.minalpha_us", mean(minA), "us")
	set("cluster.hop_p50_us", quantile(hop, 0.5), "us")
	set("cluster.hop_p99_us", quantile(hop, 0.99), "us")
	set("cluster.replica_share_min", repMin, "ratio")
	set("online.op_p50_us", quantile(eng, 0.5), "us")
	set("online.op_p99_us", quantile(eng, 0.99), "us")
	set("online.visited_per_op", mean(visited), "count")
	set("online.interior_share", share(interior, engAdmits), "ratio")
	set("online.accept_ratio", share(accepted, admits), "ratio")
	set("oplog.append_us", mean(appendUS), "us")
	set("oplog.sync_us", syncUS, "us")
	set("oplog.bytes_per_op", walBytes, "bytes")
	set("bench.gen_lag_p99_us", quantile(b.genLagUS(phaseTraced), 0.99), "us")
	set("bench.trace_overhead", traced/untraced, "ratio")
	set("bench.unexplained_share", residual/mean(client), "ratio")
	b.log("traced samples: %d ops (%d on the engine, %d WAL records); untraced p50 %.1f us, traced p50 %.1f us",
		len(ops), len(eng), len(walOps), untraced, traced)
	return nil
}

// genLagUS is how late each worker sent the ops of phase ph that found
// it idle: send time minus the later of the op's due time and the
// worker's previous response. Ops queued behind a slow answer are the
// system's wait, not the generator's, and are left out.
func (b *bench) genLagUS(ph uint8) []float64 {
	var lags []float64
	for _, wk := range b.workers {
		var rs []*opRec
		for _, d := range wk.sess {
			for i := range d.log {
				if d.log[i].phase == ph {
					rs = append(rs, &d.log[i])
				}
			}
		}
		for i := range wk.statLog {
			if wk.statLog[i].phase == ph {
				rs = append(rs, &wk.statLog[i])
			}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].sent < rs[j].sent })
		prev := int64(0)
		for _, r := range rs {
			if r.due >= prev {
				lags = append(lags, float64(r.sent-r.due)/1e3)
			}
			prev = r.done
		}
	}
	return lags
}
