package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partfeas/internal/cluster"
	"partfeas/internal/service"
)

// clusterIDPrefix fixes the coordinator's session IDs. Together with the
// fixed replica names below it makes session→replica placement a
// constant: with this prefix the four sessions split two and two.
const clusterIDPrefix = "bench"

// replicaURL is the stable base URL replica i is known by. The ring
// hashes replica URLs, so ephemeral ports would move sessions between
// replicas from run to run; resolver maps these names to the ports.
func replicaURL(i int) string { return fmt.Sprintf("http://replica-%d.servebench.invalid", i) }

// resolver dials the stable replica names on the loopback listeners
// that currently serve them.
var resolver = struct {
	sync.Mutex
	addr map[string]string
}{addr: map[string]string{}}

var installOnce sync.Once

// installResolver points http.DefaultTransport — which the coordinator's
// forwarding client uses — at a clone that resolves replica names
// through resolver and never consults a proxy. Every other transport
// setting keeps its default, so the hop is measured as deployed.
func installResolver() {
	installOnce.Do(func() {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.Proxy = nil
		var d net.Dialer
		t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			resolver.Lock()
			real, ok := resolver.addr[addr]
			resolver.Unlock()
			if !ok {
				return nil, fmt.Errorf("servebench: no listener for %s", addr)
			}
			return d.DialContext(ctx, network, real)
		}
		http.DefaultTransport = t
	})
}

// tracer is span-recording middleware around one server's handler.
// Spans are keyed by the rid query parameter the workers mint, so a
// request's spans on both sides of the coordinator share one slot.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	start []atomic.Int64 // ns since base; 0 means no span
	end   []atomic.Int64
	count atomic.Int64 // spans recorded
}

func newTracer(base time.Time, slots int) *tracer {
	return &tracer{base: base, start: make([]atomic.Int64, slots), end: make([]atomic.Int64, slots)}
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rid := ridOf(r.URL.RawQuery)
		s := int64(time.Since(t.base))
		h.ServeHTTP(w, r)
		e := int64(time.Since(t.base))
		if rid >= 0 && rid < len(t.start) {
			t.start[rid].Store(s)
			t.end[rid].Store(e)
			t.count.Add(1)
		}
	})
}

// span returns the recorded handler interval of rid.
func (t *tracer) span(rid int) (start, end int64, ok bool) {
	e := t.end[rid].Load()
	return t.start[rid].Load(), e, e != 0
}

func ridOf(q string) int {
	v, ok := strings.CutPrefix(q, "rid=")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// topology is the set of in-process servers one workload talks to.
type topology struct {
	target   string // base URL the workers send to
	replicas []*service.Server
	repTrace []*tracer // nil unless traced
	coTrace  *tracer
	coord    *cluster.Coordinator
	https    []*http.Server
	serving  sync.WaitGroup
	serveErr chan error
	dirs     []string
}

// startTopology starts the workload's servers on loopback listeners.
// With slots > 0 every handler is wrapped in a tracer of that many
// slots; the tracers start switched off.
func startTopology(w spec, workdir string, base time.Time, slots int) (_ *topology, err error) {
	tp := &topology{serveErr: make(chan error, 4)}
	defer func() {
		if err != nil {
			tp.close()
		}
	}()
	nrep := 1
	if w.kind == kindCluster {
		nrep = 2
	}
	for i := 0; i < nrep; i++ {
		var srv *service.Server
		cfg := service.Config{Addr: "127.0.0.1:0", PoolMaxKeys: w.poolKeys}
		if w.kind == kindCluster {
			dir, err := os.MkdirTemp(workdir, "replica-")
			if err != nil {
				return nil, err
			}
			tp.dirs = append(tp.dirs, dir)
			cfg.DataDir = filepath.Join(dir, "data")
			if srv, err = service.NewDurable(cfg); err != nil {
				return nil, err
			}
		} else {
			srv = service.New(cfg)
		}
		tp.replicas = append(tp.replicas, srv)
		h := srv.Handler()
		if slots > 0 {
			tr := newTracer(base, slots)
			tp.repTrace = append(tp.repTrace, tr)
			h = tr.wrap(h)
		}
		addr, err := tp.serve(h)
		if err != nil {
			return nil, err
		}
		if w.kind != kindCluster {
			tp.target = "http://" + addr
			continue
		}
		resolver.Lock()
		resolver.addr[strings.TrimPrefix(replicaURL(i), "http://")+":80"] = addr
		resolver.Unlock()
	}
	if w.kind == kindCluster {
		tp.coord = cluster.New(cluster.Config{
			Replicas:       []string{replicaURL(0), replicaURL(1)},
			HealthInterval: -1,
			IDPrefix:       clusterIDPrefix,
		})
		h := tp.coord.Handler()
		if slots > 0 {
			tp.coTrace = newTracer(base, slots)
			h = tp.coTrace.wrap(h)
		}
		addr, err := tp.serve(h)
		if err != nil {
			return nil, err
		}
		tp.target = "http://" + addr
	}
	return tp, nil
}

func (tp *topology) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	tp.https = append(tp.https, hs)
	tp.serving.Add(1)
	go func() {
		defer tp.serving.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			tp.serveErr <- err
		}
	}()
	return ln.Addr().String(), nil
}

// setTracing switches every tracer of the topology on or off.
func (tp *topology) setTracing(on bool) {
	for _, t := range tp.repTrace {
		t.on.Store(on)
	}
	if tp.coTrace != nil {
		tp.coTrace.on.Store(on)
	}
}

// close stops every server, waits for their serve loops, flushes the
// durable replicas and removes their data directories.
func (tp *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	// The coordinator's server is last in https; stop it first so no
	// forward is in flight when the replicas go.
	for i := len(tp.https) - 1; i >= 0; i-- {
		if err := tp.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	tp.serving.Wait()
	close(tp.serveErr)
	for err := range tp.serveErr {
		errs = append(errs, err)
	}
	if tp.coord != nil {
		errs = append(errs, tp.coord.Close())
	}
	for _, s := range tp.replicas {
		errs = append(errs, s.Close())
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, d := range tp.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}
