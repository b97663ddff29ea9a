package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"partfeas/internal/workload"
)

// stubMaxBody caps the stub server's response length.
const stubMaxBody = 1 << 20

// stub is the stub server child's body: it serves on the listener
// passed as fd 3 and answers every request with n bytes, n from the
// query.
func stub() {
	ln, err := net.FileListener(os.NewFile(3, "listener"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench stub:", err)
		os.Exit(1)
	}
	body := make([]byte, stubMaxBody)
	for i := range body {
		body[i] = ' '
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body[:min(max(n, 0), stubMaxBody)])
	})
	err = http.Serve(ln, h)
	fmt.Fprintln(os.Stderr, "servebench stub:", err)
	os.Exit(1)
}

// stubReq is one recorded op to replay against the stub, with the
// session it belongs to (nil for a stateless op).
type stubReq struct {
	rec opRec
	d   *sessGen
}

// clientCPU measures the load generator's own share of cpu_us_per_op.
// It replays phase ph's requests, open loop at the workload's rate for
// dur, against a stub server in a child process that answers each with
// a body of the recorded response's length. The servers under test sit
// idle meanwhile, so the benchmark process's CPU per op is the client's:
// rendering and sending the request, pacing, reading the response and
// taking its checksum.
func (b *bench) clientCPU(ph uint8, dur time.Duration) (float64, error) {
	reqs := make([][]stubReq, workers)
	for s, d := range b.gens {
		for _, r := range d.log {
			if r.phase == ph {
				reqs[s%workers] = append(reqs[s%workers], stubReq{r, d})
			}
		}
	}
	for _, wk := range b.workers {
		for _, r := range wk.statLog {
			if r.phase == ph {
				reqs[wk.id] = append(reqs[wk.id], stubReq{r, nil})
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	f, err := ln.(*net.TCPListener).File()
	ln.Close()
	if err != nil {
		return 0, err
	}
	c, err := startChild([]string{"-stub"}, nil, f)
	f.Close()
	if err != nil {
		return 0, err
	}
	target := "http://" + ln.Addr().String()
	var wg sync.WaitGroup
	sent := make([]int, workers)
	errs := make([]error, workers)
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	start := time.Now().Add(2 * time.Millisecond)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent[i], errs[i] = b.replay(i, target, reqs[i], start, start.Add(dur))
		}(i)
	}
	wg.Wait()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	if err := errors.Join(append(errs, c.stop())...); err != nil {
		return 0, err
	}
	n := sent[0] + sent[1]
	return (cpuSeconds(ru1) - cpuSeconds(ru0)) * 1e6 / float64(max(n, 1)), nil
}

// replay is one worker's side of clientCPU: it sends reqs round-robin
// on the same Poisson schedule and pacing as drive, and returns how
// many it sent.
func (b *bench) replay(i int, target string, reqs []stubReq, start, end time.Time) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	wk := newWorker(i, target)
	wk.st = b.st
	defer wk.tr.CloseIdleConnections()
	rng := workload.NewRNG(mix(b.seed, 0xca11b, uint64(i)))
	mean := float64(workers) / b.w.rate
	t, n := 0.0, 0
	for {
		t += rng.Exp(mean)
		due := start.Add(time.Duration(t * 1e9))
		if !due.Before(end) {
			return n, nil
		}
		r := reqs[n%len(reqs)]
		method, path, body, err := wk.request(&r.rec, r.d)
		if err != nil {
			return n, err
		}
		path += "?n=" + strconv.Itoa(int(r.rec.respLen))
		sleepUntil(due)
		var rec opRec
		wk.send(&rec, method, path, body, due)
		if rec.status != http.StatusOK {
			return n, fmt.Errorf("stub server answered %s %s with status %d", method, path, rec.status)
		}
		n++
	}
}
