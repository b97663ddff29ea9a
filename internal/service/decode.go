package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// Request decoding. Every public request body is read once, whole, into
// a buffer. The six request types that carry tasks are then read by a
// hand-written reader that understands only the plain subset of JSON
// their clients send: exact field names, each at most once, ASCII
// strings without escapes, and numbers in strict JSON grammar, parsed
// by the same strconv calls encoding/json makes. On
// anything else the reader declines and encoding/json decodes the same
// bytes, followed by the same read error a streaming decode of the body
// would have met. The reader has no error path of its own: every value
// it accepts is the value encoding/json produces, and every rejection
// carries encoding/json's message. FuzzDecodeRequests holds it to that.

// maxRequestBody caps every public request body; a larger one answers
// 413.
const maxRequestBody = 1 << 20

// decode reads a strict JSON body (unknown fields rejected, 1 MiB cap)
// into dst, which must be the zero value.
func decode[T any](w http.ResponseWriter, r *http.Request, dst *T) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	return decodeBody(r.Body, r.ContentLength, dst)
}

// maxPooledReq bounds the bodies read into bufPool's buffers: every
// session op body fits, an instance usually does not.
const maxPooledReq = 4 << 10

// decodeBody is decode on a capped body of the given Content-Length (-1
// when unknown).
func decodeBody[T any](body io.Reader, size int64, dst *T) error {
	var b []byte
	if size >= maxPooledReq && size <= maxRequestBody {
		// An instance-sized body gets a buffer of its own, left to the
		// GC: pooled, one per P would stay live between requests.
		b = make([]byte, 0, size+1)
	} else {
		buf := getBuf()
		defer func() { buf.b = b; buf.release() }()
		b = buf.b
	}
	b, rerr := readBody(body, b)
	if rerr == nil {
		if pr, ok := any(dst).(plainReader); ok {
			p := plain{b: b}
			if pr.readPlain(&p) && p.end() {
				return nil
			}
			var zero T
			*dst = zero
		}
	}
	var src io.Reader = bytes.NewReader(b)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return decodeError(err)
	}
	return nil
}

// decodeError renders a decode failure: 413 when the body exceeded its
// cap, 400 otherwise, both with encoding/json's message.
func decodeError(err error) error {
	he := badRequest("decoding request: %v", err)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		he.code = http.StatusRequestEntityTooLarge
	}
	return he
}

// errReader replays a body's read error after its buffered bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readBody appends everything r yields to b, as io.ReadAll does.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// plainReader is a request type with a plain-subset reader. readPlain
// reports false to decline; it may have written to the receiver then.
type plainReader interface {
	readPlain(p *plain) bool
}

// plain is a cursor over a request body in the plain subset of JSON.
// Strings it returns alias the body; values stored into requests are
// copies, so no request outlives its pooled buffer through a name.
type plain struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (p *plain) peek() byte {
	if p.i < len(p.b) && p.b[p.i] > ' ' {
		return p.b[p.i]
	}
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (p *plain) eat(c byte) bool {
	if p.peek() == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left. Anything after the
// value declines: encoding/json's Decoder ignores it, and the fallback
// answers the same.
func (p *plain) end() bool {
	p.peek()
	return p.i == len(p.b)
}

// str reads a string of ASCII characters without escapes (JSON allows
// no raw control characters in strings either).
func (p *plain) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// number reads a number in strict JSON grammar; integer reports that it
// has neither a fraction nor an exponent.
func (p *plain) number() (num []byte, integer, ok bool) {
	p.peek()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	num, p.i = b[p.i:i], i
	return num, integer, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// readInt reads an int64 field the way encoding/json does; fractions,
// exponents and overflow decline.
func (p *plain) readInt(dst *int64) bool {
	num, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	*dst = v
	return err == nil
}

// readFloat reads a float64 field the way encoding/json does; a value
// out of range declines.
func (p *plain) readFloat(dst *float64) bool {
	num, _, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	*dst = v
	return err == nil
}

// readString reads a string field into a copy.
func (p *plain) readString(dst *string) bool {
	s, ok := p.str()
	*dst = string(s)
	return ok
}

func (p *plain) readBool(dst *bool) bool {
	p.peek()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		*dst = true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		*dst = false
	default:
		return false
	}
	return true
}

// array reads an array, calling elem to read each element.
func (p *plain) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.eat(',') {
			return p.eat(']')
		}
	}
}

// object reads an object, calling field with each key once its colon
// is read; field reads the value and declines keys it does not know. A
// repeated key declines too: encoding/json would merge both values.
func (p *plain) object(field func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen [8][]byte // no request object has more fields
	for n := 0; ; n++ {
		key, ok := p.str()
		if !ok || n == len(seen) || !p.eat(':') {
			return false
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !field(key) {
			return false
		}
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}

func (p *plain) task(t *TaskJSON) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			return p.readString(&t.Name)
		case "wcet":
			return p.readInt(&t.WCET)
		case "period":
			return p.readInt(&t.Period)
		case "deadline":
			return p.readInt(&t.Deadline)
		}
		return false
	})
}

func (p *plain) tasks(dst *[]TaskJSON) bool {
	ts := []TaskJSON{}
	ok := p.array(func() bool {
		ts = append(ts, TaskJSON{})
		return p.task(&ts[len(ts)-1])
	})
	*dst = ts
	return ok
}

func (p *plain) machines(dst *[]MachineJSON) bool {
	ms := []MachineJSON{}
	ok := p.array(func() bool {
		ms = append(ms, MachineJSON{})
		m := &ms[len(ms)-1]
		return p.object(func(k []byte) bool {
			switch string(k) {
			case "name":
				return p.readString(&m.Name)
			case "speed":
				return p.readFloat(&m.Speed)
			}
			return false
		})
	})
	*dst = ms
	return ok
}

func (p *plain) floats(dst *[]float64) bool {
	fs := []float64{}
	ok := p.array(func() bool {
		fs = append(fs, 0)
		return p.readFloat(&fs[len(fs)-1])
	})
	*dst = fs
	return ok
}

// readField reads one of the instance fields every instance-carrying
// request shares.
func (r *InstanceRequest) readField(p *plain, key []byte) bool {
	switch string(key) {
	case "tasks":
		return p.tasks(&r.Tasks)
	case "speeds":
		return p.floats(&r.Speeds)
	case "machines":
		return p.machines(&r.Machines)
	case "scheduler":
		return p.readString(&r.Scheduler)
	}
	return false
}

func (r *TestRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "alpha":
			return p.readFloat(&r.Alpha)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return r.readField(p, k)
	})
}

func (r *MinAlphaRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "lo":
			return p.readFloat(&r.Lo)
		case "hi":
			return p.readFloat(&r.Hi)
		case "tol":
			return p.readFloat(&r.Tol)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return r.readField(p, k)
	})
}

func (r *AnalyzeRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "exact_budget":
			return p.readInt(&r.ExactBudget)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return r.readField(p, k)
	})
}

func (r *CreateSessionRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "alpha":
			return p.readFloat(&r.Alpha)
		case "placement":
			return p.readString(&r.Placement)
		case "deadline_model":
			return p.readString(&r.DeadlineModel)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return r.readField(p, k)
	})
}

func (r *AddTaskRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "task":
			return p.task(&r.Task)
		case "force":
			return p.readBool(&r.Force)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return false
	})
}

func (r *AdmitBatchRequest) readPlain(p *plain) bool {
	return p.object(func(k []byte) bool {
		switch string(k) {
		case "tasks":
			return p.tasks(&r.Tasks)
		case "mode":
			return p.readString(&r.Mode)
		case "timeout_ms":
			return p.readInt(&r.TimeoutMS)
		}
		return false
	})
}
