package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// Wire encoding. The three admission response types — TestResponse,
// AdmissionResponse and BatchAdmissionResponse — hold only numbers,
// bools and server-chosen identifiers, so they need no string escaping
// and are encoded by the hand-written appenders below instead of by
// reflection. The output is byte-identical to json.NewEncoder(w).Encode
// of the same value (trailing newline included); the tests and
// FuzzAppendResponses hold it to encoding/json. Every type that carries
// client-supplied strings goes through writeJSON.

// encoded is a response body encoded before the handler returns — for
// session mutations under the session lock, straight from the engine's
// views. wrap writes it in one Write and recycles the buffer. The same
// pooled buffers hold small request bodies while they are decoded and
// the tester pool's key while it is looked up.
type encoded struct{ b []byte }

// maxPooledBuf caps the buffers bufPool retains, so one large body (a
// session of many thousand tasks) does not stay pinned in the pool.
const maxPooledBuf = 16 << 10

var bufPool = sync.Pool{New: func() any { return new(encoded) }}

func getBuf() *encoded {
	e := bufPool.Get().(*encoded)
	e.b = e.b[:0]
	return e
}

func (e *encoded) release() {
	if e != nil && cap(e.b) <= maxPooledBuf {
		bufPool.Put(e)
	}
}

// finish terminates a body with encoding/json's newline, or recycles
// it and passes the encoding error on.
func (e *encoded) finish(err error) (*encoded, error) {
	if err != nil {
		e.release()
		return nil, err
	}
	e.b = append(e.b, '\n')
	return e, nil
}

// writeBody sends an encoded body with an explicit Content-Length, so
// it goes out in one Write and is never chunked, then recycles it.
func writeBody(w http.ResponseWriter, code int, e *encoded) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.b)))
	w.WriteHeader(code)
	_, _ = w.Write(e.b)
	e.release()
}

// writeJSON encodes v with encoding/json before anything is written, so
// an unencodable value (a non-finite float) answers 500 with an error
// body instead of a 200 with an empty or truncated one. It returns the
// status actually sent.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	e := getBuf()
	buf := bytes.NewBuffer(e.b)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(ErrorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	e.b = buf.Bytes()
	writeBody(w, code, e)
	return code
}

// appendFloat appends f exactly as encoding/json encodes a float64:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21 on
// with a one-digit negative exponent's leading zero removed.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// smallInts holds the decimal text of 0..99 in two-byte slots; smallLen
// says how many of a slot's bytes are the number.
var smallInts, smallLen = func() (t [200]byte, l [100]uint8) {
	for v := 0; v < 100; v++ {
		if v < 10 {
			t[2*v], l[v] = byte('0'+v), 1
		} else {
			t[2*v], t[2*v+1], l[v] = byte('0'+v/10), byte('0'+v%10), 2
		}
	}
	return t, l
}()

// appendInts appends a as a JSON array. Machine indices below 100 —
// nearly every assignment entry — are copied from a digit table.
func appendInts(b []byte, a []int) []byte {
	if a == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range a {
		if i > 0 {
			b = append(b, ',')
		}
		if uint(v) < 100 {
			b = append(b, smallInts[2*v], smallInts[2*v+1])
			b = b[:len(b)-2+int(smallLen[v])]
			continue
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendEnum appends a server-chosen identifier (a scheduler, batch mode
// or durability name) as a JSON string. Such names never need escaping;
// one that would is refused rather than encoded differently from
// encoding/json.
func appendEnum(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, fmt.Errorf("service: identifier %q needs escaping", s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// loadCache keeps the JSON text of a session's per-machine loads, keyed
// by each load's float bits: a tail admit changes one or two of m
// loads, so only those are reformatted. It is rebuilt whenever
// len(loads) changes. Slot j holds machine j's text in
// text[j*loadSlot:][:n[j]]; n[j] == 0 marks it empty. The zero value is
// ready to use; the session's lock guards it.
type loadCache struct {
	bits []uint64
	n    []uint8
	text []byte
}

// loadSlot bounds one float64's JSON text (25 bytes at most: sign, 17
// digits, and either "0.00000" or a point and a three-digit exponent).
const loadSlot = 32

// appendLoads appends loads as a JSON array; a nil cache formats every
// entry.
func (c *loadCache) appendLoads(b []byte, loads []float64) ([]byte, error) {
	if loads == nil {
		return append(b, "null"...), nil
	}
	if c != nil && len(c.bits) != len(loads) {
		c.bits = make([]uint64, len(loads))
		c.n = make([]uint8, len(loads))
		c.text = make([]byte, len(loads)*loadSlot)
	}
	b = append(b, '[')
	for j, f := range loads {
		if j > 0 {
			b = append(b, ',')
		}
		if c == nil {
			var err error
			if b, err = appendFloat(b, f); err != nil {
				return b, err
			}
			continue
		}
		bits := math.Float64bits(f)
		slot := c.text[j*loadSlot : j*loadSlot : (j+1)*loadSlot]
		if c.n[j] == 0 || c.bits[j] != bits {
			t, err := appendFloat(slot, f)
			if err != nil {
				return b, err
			}
			c.bits[j], c.n[j] = bits, uint8(len(t))
		}
		b = append(b, slot[:c.n[j]]...)
	}
	return append(b, ']'), nil
}

// appendTest appends r as encoding/json encodes a TestResponse, without
// the newline; lc (nil-safe) caches the load texts.
func appendTest(b []byte, r *TestResponse, lc *loadCache) ([]byte, error) {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendBool(b, r.Accepted)
	b = append(b, `,"scheduler":`...)
	b, err := appendEnum(b, r.Scheduler)
	if err != nil {
		return b, err
	}
	b = append(b, `,"alpha":`...)
	if b, err = appendFloat(b, r.Alpha); err != nil {
		return b, err
	}
	b = append(b, `,"assignment":`...)
	b = appendInts(b, r.Assignment)
	b = append(b, `,"loads":`...)
	if b, err = lc.appendLoads(b, r.Loads); err != nil {
		return b, err
	}
	b = append(b, `,"failed_task":`...)
	b = strconv.AppendInt(b, int64(r.FailedTask), 10)
	return append(b, '}'), nil
}

// appendTail closes an admission body: the omitempty durability field
// and the closing brace.
func appendTail(b []byte, durability string) ([]byte, error) {
	if durability != "" {
		b = append(b, `,"durability":`...)
		var err error
		if b, err = appendEnum(b, durability); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendAdmission appends r as encoding/json encodes an
// AdmissionResponse, without the newline. test, when non-nil, is the
// already-encoded Test object (a coalesced group encodes its shared one
// once) and r.Test is ignored.
func appendAdmission(b []byte, r *AdmissionResponse, test []byte, lc *loadCache) ([]byte, error) {
	b = append(b, `{"admitted":`...)
	b = strconv.AppendBool(b, r.Admitted)
	b = append(b, `,"rolled_back":`...)
	b = strconv.AppendBool(b, r.RolledBack)
	b = append(b, `,"n_tasks":`...)
	b = strconv.AppendInt(b, int64(r.NTasks), 10)
	b = append(b, `,"test":`...)
	if test != nil {
		b = append(b, test...)
	} else {
		var err error
		if b, err = appendTest(b, &r.Test, lc); err != nil {
			return b, err
		}
	}
	return appendTail(b, r.Durability)
}

// appendBatch appends r as encoding/json encodes a
// BatchAdmissionResponse, without the newline.
func appendBatch(b []byte, r *BatchAdmissionResponse, lc *loadCache) ([]byte, error) {
	b = append(b, `{"mode":`...)
	b, err := appendEnum(b, r.Mode)
	if err != nil {
		return b, err
	}
	b = append(b, `,"admitted":`...)
	if r.Admitted == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, ok := range r.Admitted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, ok)
		}
		b = append(b, ']')
	}
	b = append(b, `,"n_admitted":`...)
	b = strconv.AppendInt(b, int64(r.NAdmitted), 10)
	b = append(b, `,"n_tasks":`...)
	b = strconv.AppendInt(b, int64(r.NTasks), 10)
	b = append(b, `,"test":`...)
	if b, err = appendTest(b, &r.Test, lc); err != nil {
		return b, err
	}
	return appendTail(b, r.Durability)
}
