package service

// Live-migration tests. The correctness bar mirrors the durability
// layer's: a migrated session must serialize byte-identically (epoch
// aside — migration advances it by design) to a twin that executed the
// same op sequence on one server and never moved. The crash matrix arms
// one fault per protocol site and accepts only acked-consistent
// outcomes: every acknowledged op is in exactly one replica's state, a
// fenced source never acknowledges another mutation, and an interrupted
// handoff re-drives to completion.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"partfeas"
	"partfeas/internal/faultinject"
	"partfeas/internal/online"
)

// startHTTP puts a Server on a real loopback listener (migration is an
// HTTP protocol; the destination must be reachable).
func startHTTP(t testing.TB, srv *Server) string {
	t.Helper()
	if err := srv.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve()
	}()
	// Wait for Serve (and its t.Logf) to finish before the test does.
	t.Cleanup(func() {
		_ = srv.hs.Close()
		<-done
	})
	return "http://" + srv.Addr()
}

func testServer(t testing.TB) *Server {
	t.Helper()
	return New(Config{Addr: "127.0.0.1:0", Logf: t.Logf})
}

// sessionBytes serializes one live session.
func sessionBytes(t testing.TB, srv *Server, id string) []byte {
	t.Helper()
	s, err := srv.sessions.get(id)
	if err != nil {
		t.Fatalf("get %s: %v", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := encodeSession(s)
	if err != nil {
		t.Fatalf("encodeSession: %v", err)
	}
	return b
}

// normEpoch zeroes the epoch in an encoded session so a migrated
// session (epoch e+1) can be byte-compared against its never-migrated
// twin (epoch 1). Everything else must match exactly.
func normEpoch(t testing.TB, b []byte) []byte {
	t.Helper()
	var ss sessionSnap
	if err := json.Unmarshal(b, &ss); err != nil {
		t.Fatalf("decoding session state: %v", err)
	}
	ss.Epoch = 0
	out, err := json.Marshal(&ss)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// migOp is one step of a randomized session script.
type migOp func(ctx context.Context, s *session) error

// migScript derives a deterministic op sequence from seed: admissions
// across the tail/interior utilization range (one in four forced, with a
// full-utilization task that pushes the session over capacity), removals, WCET
// updates, and (implicit sessions only) applied repartitions. Engine
// rejections are fine — they are deterministic too and both twins see
// them.
func migScript(seed int64, n int, constrained bool) []migOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]migOp, n)
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 6: // admit
			force := rng.Intn(4) == 0
			w := int64(1 + rng.Intn(4))
			p := w * int64(2+rng.Intn(20))
			if force {
				p = w
			}
			dl := int64(0)
			if constrained {
				dl = p - int64(rng.Intn(int(p/2+1)))
				if dl < w {
					dl = w
				}
			}
			name := fmt.Sprintf("t%d", i)
			ops[i] = func(ctx context.Context, s *session) error {
				_, err := s.addTask(ctx, partfeas.Task{Name: name, WCET: w, Period: p}, dl, force)
				return err
			}
		case k < 8: // remove a pseudo-random resident
			pick := rng.Intn(64)
			ops[i] = func(ctx context.Context, s *session) error {
				s.mu.Lock()
				n := len(s.in.Tasks)
				s.mu.Unlock()
				if n == 0 {
					return nil
				}
				_, err := s.removeTask(ctx, pick%n)
				return err
			}
		case k < 9: // WCET update on a pseudo-random resident
			pick, w := rng.Intn(64), int64(1+rng.Intn(5))
			ops[i] = func(ctx context.Context, s *session) error {
				s.mu.Lock()
				n := len(s.in.Tasks)
				s.mu.Unlock()
				if n == 0 {
					return nil
				}
				_, err := s.updateWCET(ctx, pick%n, w, false)
				return err
			}
		default: // repartition (implicit only; constrained refuses it)
			if constrained {
				w := int64(1 + rng.Intn(3))
				p := w * int64(4+rng.Intn(10))
				name := fmt.Sprintf("r%d", i)
				ops[i] = func(ctx context.Context, s *session) error {
					_, err := s.addTask(ctx, partfeas.Task{Name: name, WCET: w, Period: p}, p, false)
					return err
				}
			} else {
				ops[i] = func(ctx context.Context, s *session) error {
					_, err := s.repartition(ctx, 0, true)
					return err
				}
			}
		}
	}
	return ops
}

// applyOps runs script ops, tolerating deterministic engine rejections
// (httpErrors) but failing on anything structural.
func applyOps(t testing.TB, s *session, ops []migOp) {
	t.Helper()
	ctx := context.Background()
	for i, op := range ops {
		if err := op(ctx, s); err != nil {
			var he *httpError
			if !errors.As(err, &he) {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

type migCase struct {
	name        string
	constrained bool
	sched       partfeas.Scheduler
	policy      online.Policy
}

func migCases() []migCase {
	return []migCase{
		{"edf-sorted", false, partfeas.EDF, online.FirstFitSorted()},
		{"rms-arrival", false, partfeas.RMS, online.FirstFitArrival()},
		{"edf-bestfit", false, partfeas.EDF, online.BestFit()},
		{"rms-worstfit", false, partfeas.RMS, online.WorstFit()},
		{"edf-kchoices", false, partfeas.EDF, online.KChoices(2)},
		{"edf-repartition", false, partfeas.EDF, online.PeriodicRepartition(online.FirstFitArrival(), 5)},
		{"constrained-sorted", true, partfeas.EDF, online.FirstFitSorted()},
		{"constrained-bestfit", true, partfeas.EDF, online.BestFit()},
	}
}

func createMigSession(t testing.TB, srv *Server, c migCase, id string) *session {
	t.Helper()
	in := partfeas.Instance{
		Tasks: partfeas.TaskSet{
			{Name: "video", WCET: 9, Period: 30},
			{Name: "audio", WCET: 1, Period: 4},
			{Name: "net", WCET: 3, Period: 10},
		},
		Platform:  partfeas.Platform{{Name: "m0", Speed: 1}, {Name: "m1", Speed: 1}, {Name: "m2", Speed: 4}},
		Scheduler: c.sched,
	}
	var s *session
	var err error
	if c.constrained {
		s, err = srv.sessions.createConstrained(in, []int64{20, 3, 8}, 1, c.policy, id)
	} else {
		s, err = srv.sessions.create(in, 1, c.policy, id)
	}
	if err != nil {
		t.Fatalf("create %s: %v", c.name, err)
	}
	return s
}

// TestMigrationDeterminism is the tentpole correctness claim: run a
// randomized script with a migration in the middle — including ops that
// land inside the tail-capture window, between the snapshot and the
// fence — and the migrated session must equal (bytes, epoch aside) a
// twin that ran the whole script on one server.
func TestMigrationDeterminism(t *testing.T) {
	for _, c := range migCases() {
		t.Run(c.name, func(t *testing.T) {
			src, dst := testServer(t), testServer(t)
			startHTTP(t, src)
			dstURL := startHTTP(t, dst)

			ops := migScript(11, 24, c.constrained)
			pre, tail, post := ops[:10], ops[10:13], ops[13:]

			sess := createMigSession(t, src, c, "m-1")
			applyOps(t, sess, pre)

			// The tail ops fire from inside migrateTo, after the snapshot
			// is encoded but before the fence: exactly the window whose
			// mutations must be captured and replayed on the destination.
			deactivate := faultinject.Activate(faultinject.Plan{
				Site:   faultinject.SiteMigrateSnapshot,
				OnFire: func() { applyOps(t, sess, tail) },
			})
			resp, err := src.migrateTo(context.Background(), "m-1", dstURL)
			deactivate()
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if !resp.Migrated || resp.Epoch != 2 {
				t.Fatalf("migrate response %+v", resp)
			}
			if resp.TailOps == 0 {
				t.Fatalf("no tail ops captured; the window test is vacuous")
			}

			moved, err := dst.sessions.get("m-1")
			if err != nil {
				t.Fatalf("session missing on destination: %v", err)
			}
			applyOps(t, moved, post)

			twinSrv := testServer(t)
			twin := createMigSession(t, twinSrv, c, "m-1")
			applyOps(t, twin, pre)
			applyOps(t, twin, tail)
			applyOps(t, twin, post)

			got := normEpoch(t, sessionBytes(t, dst, "m-1"))
			want := normEpoch(t, sessionBytes(t, twinSrv, "m-1"))
			if !bytes.Equal(got, want) {
				t.Errorf("migrated state diverged from never-migrated twin\n got: %s\nwant: %s", got, want)
			}

			// The source must answer every further request with a
			// redirect naming the new owner.
			if _, err := src.sessions.get("m-1"); err == nil {
				t.Fatal("source still serves the migrated session")
			} else {
				var he *httpError
				if !errors.As(err, &he) || he.code != http.StatusMisdirectedRequest || he.owner != dstURL {
					t.Errorf("tombstone error = %v (owner %q), want 421 → %s", err, he.owner, dstURL)
				}
			}
		})
	}
}

// TestMigrationFenceStaleOwner drives a mutation at the worst possible
// instant — after the fence, before the cutover record — and through
// the stale source after completion. Neither may be acknowledged.
func TestMigrationFenceStaleOwner(t *testing.T) {
	src, dst := testServer(t), testServer(t)
	startHTTP(t, src)
	dstURL := startHTTP(t, dst)
	sess := createMigSession(t, src, migCases()[0], "f-1")

	var fenceErr error
	fired := false
	deactivate := faultinject.Activate(faultinject.Plan{
		Site: faultinject.SiteMigrateCutover,
		OnFire: func() {
			fired = true
			_, fenceErr = sess.addTask(context.Background(), partfeas.Task{Name: "late", WCET: 1, Period: 50}, 0, false)
		},
	})
	_, err := src.migrateTo(context.Background(), "f-1", dstURL)
	deactivate()
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !fired {
		t.Fatal("cutover hook never fired")
	}
	var he *httpError
	if !errors.As(fenceErr, &he) || he.code != http.StatusServiceUnavailable || !he.migration {
		t.Fatalf("fenced mutation answered %v, want 503 + X-Migration", fenceErr)
	}

	// The destination's state must not contain the rejected task.
	var ss sessionSnap
	if err := json.Unmarshal(sessionBytes(t, dst, "f-1"), &ss); err != nil {
		t.Fatal(err)
	}
	for _, tk := range ss.Tasks {
		if tk.Name == "late" {
			t.Fatal("destination holds a mutation the source never acknowledged")
		}
	}

	// And the stale source can never acknowledge again: the old handle is
	// closed, the store redirects.
	if _, err := sess.addTask(context.Background(), partfeas.Task{Name: "later", WCET: 1, Period: 50}, 0, false); err == nil {
		t.Fatal("stale owner acknowledged a post-migration mutation")
	}
	if err := src.sessions.remove("f-1"); err == nil {
		t.Fatal("stale owner destroyed a migrated session")
	}
}

// TestMigrationCrashMatrix arms one fault per protocol site. For each,
// the only acceptable outcomes are: the transfer never happened (session
// live and mutable on the source, nothing durable changed hands), or the
// transfer is re-drivable and completes idempotently with the exact
// state a clean run would have produced.
func TestMigrationCrashMatrix(t *testing.T) {
	for _, site := range []faultinject.Site{
		faultinject.SiteMigrateSnapshot,
		faultinject.SiteMigrateCutover,
		faultinject.SiteMigrateStream,
		faultinject.SiteMigrateReplay,
	} {
		t.Run(string(site), func(t *testing.T) {
			src, dst := testServer(t), testServer(t)
			startHTTP(t, src)
			dstURL := startHTTP(t, dst)
			c := migCases()[0]
			sess := createMigSession(t, src, c, "x-1")
			ops := migScript(7, 12, false)
			applyOps(t, sess, ops[:8])
			wantState := normEpoch(t, sessionBytes(t, src, "x-1"))

			// The injected failure also cancels the context, so the
			// source's automatic in-call re-drive fails too and the test
			// can observe the interrupted state.
			ctx, cancel := context.WithCancel(context.Background())
			tailed := false
			var deactivate func()
			switch site {
			case faultinject.SiteMigrateSnapshot:
				// The hook lands an acknowledged op in the tail window,
				// then the Err aborts the transfer.
				deactivate = faultinject.Activate(faultinject.Plan{
					Site:   site,
					OnFire: func() { tailed = true; applyOps(t, sess, ops[8:9]) },
					Err:    errInjectedDisk,
				})
			case faultinject.SiteMigrateReplay:
				// The replay site fires per tail op, so an empty tail would
				// make this case vacuous. Chain plans: a nil-Err hook at
				// the snapshot site applies a tail op, then swaps itself
				// for the replay fault before the commit streams it.
				var hook func()
				hook = faultinject.Activate(faultinject.Plan{
					Site: faultinject.SiteMigrateSnapshot,
					OnFire: func() {
						tailed = true
						applyOps(t, sess, ops[8:9])
						hook()
						deactivate = faultinject.Activate(faultinject.Plan{
							Site:   faultinject.SiteMigrateReplay,
							OnFire: cancel,
							Err:    errInjectedDisk,
						})
					},
				})
				deactivate = hook
			case faultinject.SiteMigrateStream:
				deactivate = faultinject.Activate(faultinject.Plan{
					Site: site, OnFire: cancel, Err: errInjectedDisk,
				})
			default:
				deactivate = faultinject.Activate(faultinject.Plan{
					Site: site, Err: errInjectedDisk,
				})
			}
			_, err := src.migrateTo(ctx, "x-1", dstURL)
			deactivate()
			cancel()
			if err == nil {
				t.Fatalf("migration succeeded despite fault at %s", site)
			}

			switch site {
			case faultinject.SiteMigrateSnapshot, faultinject.SiteMigrateCutover:
				// Pre-cutover faults: the transfer never happened. The
				// session lives, unfenced, and keeps acknowledging.
				s, gerr := src.sessions.get("x-1")
				if gerr != nil {
					t.Fatalf("session gone after pre-cutover fault: %v", gerr)
				}
				if _, aerr := s.addTask(context.Background(), partfeas.Task{Name: "post", WCET: 1, Period: 40}, 0, false); aerr != nil {
					t.Fatalf("session not mutable after aborted migration: %v", aerr)
				}
			case faultinject.SiteMigrateStream, faultinject.SiteMigrateReplay:
				// Post-cutover faults: the source is fenced with retained
				// state; mutations redirect; a re-drive completes with the
				// state every acknowledged op produced.
				if _, gerr := src.sessions.get("x-1"); gerr == nil {
					t.Fatal("session still live on source after cutover")
				}
				src.sessions.mu.Lock()
				mv := src.sessions.moved["x-1"]
				src.sessions.mu.Unlock()
				if mv == nil || mv.state == nil {
					t.Fatalf("no re-drivable tombstone after %s fault", site)
				}
				resp, rerr := src.migrateTo(context.Background(), "x-1", dstURL)
				if rerr != nil {
					t.Fatalf("re-drive: %v", rerr)
				}
				if !resp.Redriven {
					t.Fatalf("re-drive response %+v", resp)
				}
				got := normEpoch(t, sessionBytes(t, dst, "x-1"))
				want := wantState
				if tailed {
					// The tail op was acknowledged pre-fence; recompute the
					// expected state including it on a twin.
					twinSrv := testServer(t)
					twin := createMigSession(t, twinSrv, c, "x-1")
					applyOps(t, twin, ops[:9])
					want = normEpoch(t, sessionBytes(t, twinSrv, "x-1"))
				}
				if !bytes.Equal(got, want) {
					t.Errorf("re-driven state diverged\n got: %s\nwant: %s", got, want)
				}
				// Re-driving to a different destination must be refused —
				// two destinations at one epoch would be split brain.
				other := testServer(t)
				otherURL := startHTTP(t, other)
				if _, serr := src.migrateTo(context.Background(), "x-1", otherURL); serr == nil {
					t.Fatal("re-drive to a different destination accepted")
				}
			}
		})
	}
}

// TestMigrationWALRecovery crashes both ends of a completed handoff and
// replays their logs: the source must recover the tombstone (with
// retained state — it cannot know the commit was confirmed) and the
// destination must recover the migrated session byte-identically.
func TestMigrationWALRecovery(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := mustDurable(t, srcDir, Config{Addr: "127.0.0.1:0", FsyncInterval: -1, SnapshotEvery: -1})
	dst := mustDurable(t, dstDir, Config{Addr: "127.0.0.1:0", FsyncInterval: -1, SnapshotEvery: -1})
	startHTTP(t, src)
	dstURL := startHTTP(t, dst)

	c := migCases()[0]
	sess := createMigSession(t, src, c, "w-1")
	applyOps(t, sess, migScript(3, 8, false)[:8])
	if _, err := src.migrateTo(context.Background(), "w-1", dstURL); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	wantDst := sessionBytes(t, dst, "w-1")

	src.Crash()
	dst.Crash()
	src2 := mustDurable(t, srcDir, Config{FsyncInterval: -1, SnapshotEvery: -1})
	dst2 := mustDurable(t, dstDir, Config{FsyncInterval: -1, SnapshotEvery: -1})

	if got := sessionBytes(t, dst2, "w-1"); !bytes.Equal(got, wantDst) {
		t.Errorf("destination recovery diverged\n got: %s\nwant: %s", got, wantDst)
	}
	_, err := src2.sessions.get("w-1")
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusMisdirectedRequest || he.owner != dstURL {
		t.Fatalf("recovered source answers %v, want 421 → %s", err, dstURL)
	}
	src2.sessions.mu.Lock()
	mv := src2.sessions.moved["w-1"]
	src2.sessions.mu.Unlock()
	if mv == nil || mv.state == nil || mv.epoch != 2 {
		t.Fatalf("recovered tombstone %+v, want retained state at epoch 2", mv)
	}

	// Re-driving the recovered tombstone against a destination that
	// already owns the epoch must be a no-op success.
	resp, err := src2.migrateTo(context.Background(), "w-1", dstURL)
	if err != nil {
		t.Fatalf("idempotent re-drive: %v", err)
	}
	if !resp.Redriven {
		t.Fatalf("re-drive response %+v", resp)
	}
	if got := sessionBytes(t, dst2, "w-1"); !bytes.Equal(got, wantDst) {
		t.Errorf("idempotent re-drive changed destination state")
	}
}

// TestMigrateHTTPFlow exercises the public endpoint end to end: create
// with an explicit X-Session-ID, migrate via POST, mutate via the new
// owner, and read the 421 + X-Session-Owner redirect from the old one.
func TestMigrateHTTPFlow(t *testing.T) {
	src, dst := testServer(t), testServer(t)
	srcURL := startHTTP(t, src)
	dstURL := startHTTP(t, dst)

	body := `{"tasks":[{"name":"a","wcet":1,"period":4}],"speeds":[1,2],"scheduler":"edf"}`
	req, _ := http.NewRequest(http.MethodPost, srcURL+"/v1/sessions", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Session-ID", "web-7")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create with X-Session-ID: %d", res.StatusCode)
	}

	res, err = http.Post(srcURL+"/v1/sessions/web-7/migrate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"target":%q}`, dstURL)))
	if err != nil {
		t.Fatal(err)
	}
	var mr MigrateResponse
	if err := json.NewDecoder(res.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !mr.Migrated {
		t.Fatalf("migrate: %d %+v", res.StatusCode, mr)
	}

	res, err = http.Post(dstURL+"/v1/sessions/web-7/tasks", "application/json",
		strings.NewReader(`{"task":{"wcet":1,"period":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("admit on new owner: %d", res.StatusCode)
	}

	res, err = http.Get(srcURL + "/v1/sessions/web-7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusMisdirectedRequest || res.Header.Get("X-Session-Owner") != dstURL {
		t.Fatalf("old owner answers %d (owner %q), want 421 → %s", res.StatusCode, res.Header.Get("X-Session-Owner"), dstURL)
	}
}

// TestMigrationDestroyAborts destroys the session mid-transfer (inside
// the tail window); the migration must abort, not resurrect it.
func TestMigrationDestroyAborts(t *testing.T) {
	src, dst := testServer(t), testServer(t)
	startHTTP(t, src)
	dstURL := startHTTP(t, dst)
	createMigSession(t, src, migCases()[0], "d-1")

	deactivate := faultinject.Activate(faultinject.Plan{
		Site: faultinject.SiteMigrateSnapshot,
		OnFire: func() {
			if err := src.sessions.remove("d-1"); err != nil {
				t.Errorf("destroy during migration: %v", err)
			}
		},
	})
	_, err := src.migrateTo(context.Background(), "d-1", dstURL)
	deactivate()
	if err == nil {
		t.Fatal("migration of a destroyed session succeeded")
	}
	if _, err := dst.sessions.get("d-1"); err == nil {
		t.Fatal("destroyed session resurrected on destination")
	}
	time.Sleep(10 * time.Millisecond)
}

// TestMigrationMetricsMove asserts the migration counters move: one
// completed handoff records an out on the source, an in on the
// destination, and a failed attempt records a failure.
func TestMigrationMetricsMove(t *testing.T) {
	src, dst := testServer(t), testServer(t)
	startHTTP(t, src)
	dstURL := startHTTP(t, dst)
	createMigSession(t, src, migCases()[0], "mm-1")
	// Dead-target attempt first, while the session is still live (after
	// a successful migration it would be a redirect, not a failure).
	if _, err := src.migrateTo(context.Background(), "mm-1", "http://127.0.0.1:1"); err == nil {
		t.Fatal("migration to a dead target succeeded")
	}
	if got := src.metrics.migrFailed.Load(); got == 0 {
		t.Error("failed migration not counted")
	}
	if _, err := src.migrateTo(context.Background(), "mm-1", dstURL); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if got := src.metrics.migrOut.Load(); got != 1 {
		t.Errorf("source migrations out = %d, want 1", got)
	}
	if got := dst.metrics.migrIn.Load(); got != 1 {
		t.Errorf("destination migrations in = %d, want 1", got)
	}
	var buf bytes.Buffer
	src.metrics.WritePrometheus(&buf)
	for _, want := range []string{
		`partfeas_migrations_total{direction="out"} 1`,
		"partfeas_migration_failures_total 1",
		"partfeas_migration_duration_seconds_count 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
