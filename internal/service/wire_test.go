package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"partfeas"
	"partfeas/internal/online"
	"partfeas/internal/partition"
)

// jsonOracle is what the wire carried before the appenders: encoding/json
// over the value, TestResponses deep-copied by TestResponseFrom.
func jsonOracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// fuzzFloat draws the float shapes where encoding/json's formatting
// switches or special-cases: both sides of 1e-6 and 1e21, negative zero,
// subnormals, arbitrary bit patterns (NaN and ±Inf included) and
// ordinary loads.
func fuzzFloat(r *rand.Rand) float64 {
	switch r.IntN(10) {
	case 0:
		return 1e-6 * (1 + (r.Float64()-0.5)*1e-12)
	case 1:
		return 1e21 * (1 + (r.Float64()-0.5)*1e-12)
	case 2:
		return []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1e-10, 5e-324}[r.IntN(7)]
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.SmallestNonzeroFloat64 * float64(r.IntN(1<<20)+1)
	case 5:
		return math.Float64frombits(r.Uint64())
	case 6:
		return -r.Float64() * 100
	case 7:
		return 0
	default:
		return r.Float64() * 4
	}
}

// fuzzResult draws a partition result of n tasks on m machines; a
// negative n or m leaves that slice nil.
func fuzzResult(r *rand.Rand, n, m int) partition.Result {
	res := partition.Result{FailedTask: -1, Alpha: fuzzFloat(r), Feasible: r.IntN(2) == 0}
	if !res.Feasible && n > 0 {
		res.FailedTask = r.IntN(n)
	}
	if n >= 0 {
		res.Assignment = make([]int, n)
		for i := range res.Assignment {
			switch r.IntN(20) {
			case 0:
				res.Assignment[i] = -1
			case 1:
				res.Assignment[i] = int(int32(r.Uint32()))
			default:
				res.Assignment[i] = r.IntN(130)
			}
		}
	}
	if m >= 0 {
		res.Loads = make([]float64, m)
		for j := range res.Loads {
			res.Loads[j] = fuzzFloat(r)
		}
	}
	return res
}

// checkSame requires the appender's output (plus encoding/json's
// newline) to equal the oracle's, or both to fail.
func checkSame(t *testing.T, what string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, gerr, werr)
	}
	if werr != nil {
		return
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("%s differs from encoding/json\ngot  %s\nwant %s", what, got, want)
	}
}

// FuzzAppendResponses holds the hand-written appenders byte-identical
// to encoding/json over random partition results: nil and empty
// slices, failed tasks, edge-case floats, both schedulers, every
// durability level and both batch modes. A load cache carried across
// two encodes (the second with a few loads changed, sometimes with a
// different machine count) must answer like a fresh format.
func FuzzAppendResponses(f *testing.F) {
	f.Add(uint64(1), uint16(5), uint8(3))
	f.Add(uint64(2), uint16(0), uint8(0))
	f.Add(uint64(3), uint16(1000), uint8(64))
	f.Add(uint64(4), uint16(0xffff), uint8(0xff))
	for s := uint64(5); s < 40; s++ {
		f.Add(s, uint16(s*37%300), uint8(s*11%70))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, mRaw uint8) {
		r := rand.New(rand.NewPCG(seed, uint64(nRaw)<<8|uint64(mRaw)))
		// The top values of each range stand for a nil slice.
		n, m := int(nRaw%2000)-1, int(mRaw%130)-1
		var lc loadCache
		for round := 0; round < 2; round++ {
			res := fuzzResult(r, n, m)
			if round == 1 && r.IntN(3) > 0 {
				// Keep most loads: the cache must still re-key the few
				// that change.
				for j := range res.Loads {
					if r.IntN(8) > 0 {
						res.Loads[j] = float64(j) / 7
					}
				}
			}
			rep := partfeas.Report{
				Accepted:  res.Feasible,
				Scheduler: []partfeas.Scheduler{partfeas.EDF, partfeas.RMS}[r.IntN(2)],
				Alpha:     res.Alpha,
				Partition: res,
			}
			full := TestResponseFrom(rep)
			view := testView(rep)
			want, werr := jsonOracle(full)
			got, gerr := appendTest(nil, &view, &lc)
			checkSame(t, "TestResponse", got, gerr, want, werr)
			got, gerr = appendTest(nil, &view, nil)
			checkSame(t, "TestResponse (no cache)", got, gerr, want, werr)

			dur := []string{"", "none", "wal"}[r.IntN(3)]
			ar := AdmissionResponse{Admitted: r.IntN(2) == 0, RolledBack: r.IntN(2) == 0, NTasks: n + 1, Test: full, Durability: dur}
			want, werr = jsonOracle(ar)
			av := ar
			av.Test = view
			got, gerr = appendAdmission(nil, &av, nil, &lc)
			checkSame(t, "AdmissionResponse", got, gerr, want, werr)
			if werr == nil {
				// A coalesced group's shared, pre-encoded test object.
				test, _ := appendTest(nil, &view, nil)
				got, gerr = appendAdmission(nil, &AdmissionResponse{Admitted: ar.Admitted, RolledBack: ar.RolledBack, NTasks: ar.NTasks, Durability: dur}, test, nil)
				checkSame(t, "AdmissionResponse (shared test)", got, gerr, want, werr)
			}

			br := BatchAdmissionResponse{
				Mode:       []online.BatchMode{online.BestEffort, online.AllOrNothing}[r.IntN(2)].String(),
				NAdmitted:  r.IntN(5),
				NTasks:     n + 1,
				Test:       full,
				Durability: dur,
			}
			switch k := r.IntN(4); k {
			case 0: // nil
			case 1:
				br.Admitted = []bool{}
			default:
				br.Admitted = make([]bool, r.IntN(20)+1)
				for i := range br.Admitted {
					br.Admitted[i] = r.IntN(2) == 0
				}
			}
			want, werr = jsonOracle(br)
			bv := br
			bv.Test = view
			got, gerr = appendBatch(nil, &bv, &lc)
			checkSame(t, "BatchAdmissionResponse", got, gerr, want, werr)

			if round == 0 && r.IntN(3) == 0 {
				m = r.IntN(70) - 1 // the next round sees another machine count
			}
		}
	})
}

// TestLoadCacheMachineCountChange: a cache filled at one machine count
// answers correctly when the next call has fewer or more machines, and
// when a load changes in a cached slot.
func TestLoadCacheMachineCountChange(t *testing.T) {
	format := func(loads []float64) string {
		b, err := json.Marshal(loads)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var lc loadCache
	for _, loads := range [][]float64{
		{0.5, 0.25, 1.75, 3},
		{0.5, 0.25},
		{0.5, 0.25, 1e-7, 2.5e21, 0.125, 1},
		{0.5, 0.3, 1e-7, 2.5e21, 0.125, 1},
		{math.Copysign(0, -1), 0.3, 0, 2.5e21, 0.125, 1},
		{},
		{7},
	} {
		got, err := lc.appendLoads(nil, loads)
		if err != nil {
			t.Fatal(err)
		}
		if want := format(loads); string(got) != want {
			t.Fatalf("loads %v: got %s, want %s", loads, got, want)
		}
	}
	if got, _ := lc.appendLoads(nil, nil); string(got) != "null" {
		t.Fatalf("nil loads: got %s, want null", got)
	}
}

// TestWrapUnencodableValue: a response value encoding/json refuses (a
// NaN) answers 500 with a decodable error body and a Content-Length,
// never a 200 with an empty or truncated body.
func TestWrapUnencodableValue(t *testing.T) {
	s := New(Config{})
	h := s.wrap("/nan", func(http.ResponseWriter, *http.Request) (any, int, error) {
		return MinAlphaResponse{Alpha: math.NaN(), OK: true}, 0, nil
	})
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/nan", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("body %q is not an error response: %v", w.Body, err)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, w.Body.Len())
	}
}

// TestResponsesCarryContentLength: encoded and encoding/json bodies
// alike go out with a Content-Length that matches them.
func TestResponsesCarryContentLength(t *testing.T) {
	s := New(Config{})
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/sessions", demoBody + `}`},
		{http.MethodPost, "/v1/sessions/s-1/tasks", `{"task":{"wcet":1,"period":40}}`},
		{http.MethodPost, "/v1/sessions/s-1/admit-batch", `{"tasks":[{"wcet":1,"period":40}]}`},
		{http.MethodPost, "/v1/sessions/s-1/test", `{}`},
		{http.MethodGet, "/v1/sessions/s-1", ""},
		{http.MethodPost, "/v1/test", demoBody + `}`},
		{http.MethodGet, "/v1/sessions/nope", ""},
	} {
		w := do(t, s, req.method, req.path, req.body)
		if cl := w.Header().Get("Content-Length"); cl == "" || cl != strconv.Itoa(w.Body.Len()) {
			t.Errorf("%s %s: Content-Length %q for a %d-byte body", req.method, req.path, cl, w.Body.Len())
		}
	}
}

// BenchmarkAdmissionResponseEncode encodes one admission answer of a
// steady-state session (n=1000 tasks, m=64 machines), one or two loads
// changed per op as on a tail admit. "append" is the session path (the
// appender over the engine's views with the load-text cache); "json" is
// the encoding/json path it replaced (deep copy, then reflection).
func BenchmarkAdmissionResponseEncode(b *testing.B) {
	const n, m = 1000, 64
	r := rand.New(rand.NewPCG(1, 2))
	res := partition.Result{Feasible: true, FailedTask: -1, Alpha: 1, Assignment: make([]int, n), Loads: make([]float64, m)}
	for i := range res.Assignment {
		res.Assignment[i] = r.IntN(m)
	}
	for j := range res.Loads {
		res.Loads[j] = r.Float64() * 2
	}
	rep := partfeas.Report{Accepted: true, Scheduler: partfeas.EDF, Alpha: 1, Partition: res}
	touch := func(i int) {
		res.Loads[i%m] = r.Float64() * 2
		if i%2 == 0 {
			res.Loads[(i*7)%m] = r.Float64() * 2
		}
	}
	b.Run("append", func(b *testing.B) {
		s := &session{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			touch(i)
			body, err := s.encodeAdmission(AdmissionResponse{Admitted: true, NTasks: n, Test: testView(rep)}, nil)
			if err != nil {
				b.Fatal(err)
			}
			body.release()
		}
	})
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			touch(i)
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(AdmissionResponse{Admitted: true, NTasks: n, Test: TestResponseFrom(rep), Durability: "none"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
