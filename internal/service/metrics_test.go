package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partfeas/internal/oplog"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{time.Millisecond, 10}, // 1µs·2^10 = 1.024ms
		{time.Second, 20},      // 1µs·2^20 ≈ 1.049s
		{time.Hour, histBuckets},
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	m := NewMetrics(nil, nil)
	if q := m.reqLat.quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q)
	}
	// 90 fast requests (~100µs), 10 slow (~50ms): p50 lands in the fast
	// bucket's upper bound, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		m.RequestStarted()
		m.RequestDone("/v1/test", 200, 100*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.RequestStarted()
		m.RequestDone("/v1/test", 200, 50*time.Millisecond)
	}
	p50, p99 := m.reqLat.quantile(0.5), m.reqLat.quantile(0.99)
	if p50 > time.Millisecond {
		t.Errorf("p50 = %v, want ≤ 1ms", p50)
	}
	if p99 < 10*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want a slow-bucket bound", p99)
	}
	if p50 >= p99 {
		t.Errorf("p50 %v not below p99 %v", p50, p99)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	m := NewMetrics(func() int { return 3 }, func() PoolStats { return PoolStats{Hits: 6, Misses: 2, Idle: 1} })
	m.RequestStarted()
	m.RequestDone("/v1/test", 200, time.Millisecond)
	m.RequestStarted() // still in flight at scrape time
	m.RequestCanceled()

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`partfeas_http_requests_total{endpoint="/v1/test",code="200"} 1`,
		"partfeas_http_in_flight 1",
		"partfeas_http_requests_canceled_total 1",
		"partfeas_tester_cache_hits_total 6",
		"partfeas_tester_cache_misses_total 2",
		"partfeas_tester_cache_idle 1",
		"partfeas_tester_cache_hit_ratio 0.75",
		"partfeas_sessions_active 3",
		`partfeas_http_request_duration_seconds{quantile="0.99"}`,
		"partfeas_http_request_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" — two fields.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Fields(line)); got != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	m.RequestDone("/v1/test", 200, time.Millisecond)
}

// fixedMetrics is a registry after a fixed set of observations touching
// every family: requests under two endpoints and codes (overflow bucket
// included), a cancellation, every admission path, migrations both ways
// and failed, pool and WAL stats.
func fixedMetrics() *Metrics {
	m := NewMetrics(func() int { return 4 }, func() PoolStats {
		return PoolStats{Hits: 9, Misses: 3, Idle: 2, Keys: 2, Evictions: 1}
	})
	m.walStats = func() WALStats {
		return WALStats{
			Stats:            oplog.Stats{Appends: 17, Fsyncs: 5, Rotations: 1, Segments: 2, SegmentBytes: 4096, NextIndex: 18},
			Snapshots:        2,
			SnapshotFailures: 1,
			LastSnapshot:     12,
			Degraded:         true,
		}
	}
	for i, d := range []time.Duration{0, 800 * time.Nanosecond, 3 * time.Microsecond, 90 * time.Microsecond, 2 * time.Millisecond, 70 * time.Millisecond, 3 * time.Second, time.Hour} {
		m.RequestStarted()
		code := 200
		if i%3 == 2 {
			code = 400
		}
		m.RequestDone([]string{"/v1/test", "/v1/sessions/{id}/tasks"}[i%2], code, d)
	}
	m.RequestStarted()
	m.RequestCanceled()
	for p := AdmissionPath(0); p < nPaths; p++ {
		for k := 0; k <= int(p); k++ {
			m.AdmissionObserved(p, time.Duration(k+1)*time.Duration(p+1)*7*time.Microsecond)
		}
	}
	m.AdmissionObserved(PathTail, 40*time.Second)
	m.MigrationOut(15 * time.Millisecond)
	m.MigrationOut(400 * time.Millisecond)
	m.MigrationIn()
	m.MigrationFailed()
	return m
}

// TestWritePrometheusPinned pins the full exposition text of
// fixedMetrics, uptime line excluded, against testdata/metrics.txt
// (recorded before the three histogram copies became latencyHist).
func TestWritePrometheusPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fixedMetrics().WritePrometheus(&sb)
	var got strings.Builder
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if !strings.HasPrefix(line, "partfeas_uptime_seconds ") {
			got.WriteString(line)
		}
	}
	if got.String() != string(want) {
		t.Errorf("exposition differs from testdata/metrics.txt:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
