package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The control plane's JSON without reflection. Every in-repo client sends
// json.Marshal output of the request structs: exact lowercase keys,
// unescaped strings, plain numbers. scanner parses exactly that subset and
// gives up on anything else (an escape, a case-folded or unknown key,
// null, a number strconv refuses, malformed JSON); the body then goes to
// encoding/json over the same bytes, so every request decodes to the value
// and the error-or-nil encoding/json gives it. A repeated scalar key keeps
// its last value, as in encoding/json. FuzzJSONBodies holds the two to
// that contract.

// wireBufs recycles request-body and reply buffers across handlers.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWire caps the buffers kept in wireBufs: a batch check-in or a
// large legacy update may borrow more, but does not pin it.
const maxPooledWire = 1 << 20

func getWireBuf() *[]byte { return wireBufs.Get().(*[]byte) }

func putWireBuf(p *[]byte) {
	if cap(*p) <= maxPooledWire {
		*p = (*p)[:0]
		wireBufs.Put(p)
	}
}

// readCheckIn reads r's body whole into *buf under the check-in budget and
// decodes it into req as decodeJSON does. The scan is a direct call, not a
// func value, so the scanner stays on the stack.
func readCheckIn(w http.ResponseWriter, r *http.Request, buf *[]byte, req *CheckInRequest) error {
	if err := readBody(w, r, buf, maxCheckInBody); err != nil {
		return err
	}
	s := scanner{b: *buf}
	if s.checkIn(req); s.bad {
		*req = CheckInRequest{}
		return json.NewDecoder(bytes.NewReader(*buf)).Decode(req)
	}
	return nil
}

// readUpdate is readCheckIn for a JSON update body.
func readUpdate(w http.ResponseWriter, r *http.Request, buf *[]byte, req *UpdateRequest) error {
	if err := readBody(w, r, buf, maxUpdateBody); err != nil {
		return err
	}
	s := scanner{b: *buf}
	if s.update(req); s.bad {
		*req = UpdateRequest{}
		return json.NewDecoder(bytes.NewReader(*buf)).Decode(req)
	}
	return nil
}

// readBody reads r's body whole into *buf under a limit-byte budget. A
// body over the budget, declared or streamed, fails with
// *http.MaxBytesError. The buffer grows only as bytes arrive, doubling up
// to the budget and no further: a declared Content-Length under the
// budget reserves nothing, and a body at the budget costs about twice its
// size in all.
func readBody(w http.ResponseWriter, r *http.Request, buf *[]byte, limit int64) error {
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	b := (*buf)[:0]
	defer func() { *buf = b }()
	for {
		if len(b) == cap(b) && int64(len(b)) < limit {
			b = slices.Grow(b, int(min(max(int64(cap(b)), bytes.MinRead), limit-int64(len(b)))))
		}
		var err error
		if len(b) < cap(b) {
			var n int
			n, err = body.Read(b[len(b):cap(b)])
			b = b[:len(b)+n]
		} else {
			// At the budget, the reader returns no byte: it ends the
			// body or fails it.
			var probe [1]byte
			_, err = body.Read(probe[:])
		}
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// decodeJSON decodes body into v with scan, the canonical-subset parser
// for v's type, and with encoding/json when the parser gives up. Decoded
// values never alias body.
func decodeJSON[T any](body []byte, v *T, scan func(*scanner, *T)) error {
	s := scanner{b: body}
	if scan(&s, v); !s.bad {
		return nil
	}
	// The fallback starts from the zero value, as the caller's did.
	*v = *new(T)
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// scanner is a cursor over one JSON body. Like json.Decoder it reads the
// first value and ignores whatever follows it.
type scanner struct {
	b   []byte
	i   int
	bad bool // the input left the canonical subset
	// fresh: some name was not in the intern table and decoded to a
	// fresh copy.
	fresh bool
}

// fail marks the input bad and moves the cursor to the end, so every later
// step fails at once.
func (s *scanner) fail() {
	s.bad = true
	s.i = len(s.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c as the next non-space byte.
func (s *scanner) eat(c byte) bool {
	if s.peek() != c {
		s.fail()
		return false
	}
	s.i++
	return true
}

// member steps to the next member of an object of which n members have
// been read, leaving the cursor on its value. ok is false at the closing
// brace and on failure.
func (s *scanner) member(n int) (key []byte, ok bool) {
	if n == 0 && !s.eat('{') {
		return nil, false
	}
	if s.peek() == '}' {
		s.i++
		return nil, false
	}
	if n > 0 && !s.eat(',') || !s.eat('"') {
		return nil, false
	}
	// No known key holds a quote or a backslash, so a key that does is cut
	// short here and fails to match.
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		s.fail()
		return nil, false
	}
	key = s.b[s.i : s.i+end]
	s.i += end + 1
	return key, s.eat(':')
}

// name reads a string and returns the intern table's copy when it holds
// one (interns), a fresh copy otherwise: the scanner only looks strings
// up, and the registry adds the ones it admits.
func (s *scanner) name() string {
	b := s.str()
	if v, ok := interns.lookup(b); ok || len(b) == 0 {
		return v
	}
	s.fresh = true
	return string(b)
}

// str reads a string with no escapes and no control bytes whose contents
// are valid UTF-8, the strings encoding/json copies through unchanged, and
// returns its contents in place.
func (s *scanner) str() []byte {
	if !s.eat('"') {
		return nil
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			if !ascii && !utf8.Valid(v) {
				s.fail()
				return nil
			}
			return v
		case c == '\\' || c < ' ':
			s.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.fail()
	return nil
}

// number reads one literal of the JSON number grammar.
func (s *scanner) number() []byte {
	s.peek()
	b, start, i := s.b, s.i, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		s.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			s.fail()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.fail()
			return nil
		}
		i = j
	}
	s.i = i
	return b[start:i]
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (s *scanner) bool() bool {
	switch s.peek() {
	case 't':
		if bytes.HasPrefix(s.b[s.i:], []byte("true")) {
			s.i += 4
			return true
		}
	case 'f':
		if bytes.HasPrefix(s.b[s.i:], []byte("false")) {
			s.i += 5
			return false
		}
	}
	s.fail()
	return false
}

// more steps past one array element: true after a comma, false after the
// closing bracket or on failure.
func (s *scanner) more() bool {
	switch s.peek() {
	case ',':
		s.i++
		return true
	case ']':
		s.i++
	default:
		s.fail()
	}
	return false
}

// open consumes an array's opening bracket and reports whether an element
// follows; an empty array is consumed whole.
func (s *scanner) open() bool {
	if !s.eat('[') {
		return false
	}
	if s.peek() == ']' {
		s.i++
		return false
	}
	return true
}

func (s *scanner) floats() []float64 {
	out := []float64{}
	if !s.open() {
		return out
	}
	for {
		v, err := strconv.ParseFloat(string(s.number()), 64)
		if err != nil {
			s.fail()
			return nil
		}
		if out = append(out, v); !s.more() {
			return out
		}
	}
}

// checkIn, batch and update fill the request structs. Numbers parse as
// encoding/json parses them for the field's type, so a literal it refuses
// there (1.0 into an int, 1e400, -1 into a uint) fails the scan.
func (s *scanner) checkIn(req *CheckInRequest) {
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		var err error
		switch string(key) {
		case "device_id":
			req.DeviceID, err = strconv.ParseInt(string(s.number()), 10, 64)
		case "model":
			req.Model = s.name()
		case "platform":
			req.Platform = s.name()
		case "wifi":
			req.WiFi = s.bool()
		case "battery_high":
			req.BatteryHigh = s.bool()
		case "modern_os":
			req.ModernOS = s.bool()
		case "session_sec":
			req.SessionSec, err = strconv.ParseFloat(string(s.number()), 64)
		case "weight":
			req.Weight, err = strconv.ParseFloat(string(s.number()), 64)
		case "accept_schemes":
			req.AcceptSchemes = s.name()
		default:
			s.fail()
			return
		}
		if err != nil {
			s.fail()
			return
		}
	}
}

func (s *scanner) batch(req *BatchCheckInRequest) {
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		// encoding/json would merge a repeated devices array into the
		// first one; leave that to it.
		if n > 0 || string(key) != "devices" {
			s.fail()
			return
		}
		// A caller's array is reused; past the batch limit the body
		// goes to the fallback, where batchCount refuses it.
		if req.Devices = req.Devices[:0]; req.Devices == nil {
			req.Devices = []CheckInRequest{}
		}
		if !s.open() {
			continue
		}
		for {
			if len(req.Devices) == MaxCheckInBatch {
				s.fail()
				return
			}
			req.Devices = append(req.Devices, CheckInRequest{})
			s.checkIn(&req.Devices[len(req.Devices)-1])
			if !s.more() {
				break
			}
		}
	}
}

// batchCount bounds the devices encoding/json would decode from a batch
// body without decoding any: the most elements an array member of the
// top-level object holds (an empty array counts one). It reads only
// structure — brackets, braces, commas and where strings end — so no
// key spelling or escape gets past it.
func batchCount(body []byte) int {
	depth, n, most := 0, 0, 0
	inArray := false // the member value being read is an array
	for i := 0; i < len(body); i++ {
		switch c := body[i]; c {
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if depth++; depth == 1 && c == '[' {
				return 0 // not an object: encoding/json decodes nothing
			}
			if depth == 2 {
				inArray, n = c == '[', 1
			}
		case '}', ']':
			if depth == 2 && inArray {
				most = max(most, n)
			}
			if depth--; depth == 0 {
				return most
			}
		case ',':
			if depth == 2 && inArray {
				n++
			}
		}
	}
	return most
}

func (s *scanner) update(req *UpdateRequest) {
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		var err error
		switch string(key) {
		case "device_id":
			req.DeviceID, err = strconv.ParseInt(string(s.number()), 10, 64)
		case "round_id":
			req.RoundID, err = strconv.ParseUint(string(s.number()), 10, 64)
		case "base_version":
			req.BaseVersion, err = strconv.Atoi(string(s.number()))
		case "weight":
			req.Weight, err = strconv.ParseFloat(string(s.number()), 64)
		case "delta":
			req.Delta = s.floats()
		default:
			s.fail()
			return
		}
		if err != nil {
			s.fail()
			return
		}
	}
}

// The reply appenders write what json.NewEncoder(w).Encode writes for the
// same struct, trailing newline included.

func appendCheckInReply(b []byte, r *CheckInResponse) []byte {
	b = append(b, `{"new":`...)
	b = strconv.AppendBool(b, r.New)
	b = append(b, `,"eligible":`...)
	b = strconv.AppendBool(b, r.Eligible)
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, int64(r.Version), 10)
	b = append(b, `,"round_id":`...)
	b = strconv.AppendUint(b, r.RoundID, 10)
	b = appendOmitEmpty(b, `,"cohort":`, r.Cohort)
	b = appendOmitEmpty(b, `,"task_scheme":`, r.TaskScheme)
	b = appendOmitEmpty(b, `,"update_scheme":`, r.UpdateScheme)
	return append(b, "}\n"...)
}

func appendBatchReply(b []byte, r *BatchCheckInResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(r.Accepted), 10)
	b = append(b, `,"new":`...)
	b = strconv.AppendInt(b, int64(r.New), 10)
	b = append(b, `,"eligible":`...)
	b = strconv.AppendInt(b, int64(r.Eligible), 10)
	if len(r.RejectedIDs) > 0 {
		b = append(b, `,"rejected_ids":[`...)
		for i, id := range r.RejectedIDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, id, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, int64(r.Version), 10)
	b = append(b, `,"round_id":`...)
	b = strconv.AppendUint(b, r.RoundID, 10)
	return append(b, "}\n"...)
}

// appendTaskReply appends the legacy JSON task reply (TaskResponse) but
// for its params array, and returns where that array goes: the plane's
// cached json.Marshal output, written as it is between b[:at] and b[at:].
// The encoder's compact-and-escape pass over a json.RawMessage would
// return it unchanged.
func appendTaskReply(b []byte, t *Task, withParams bool) (_ []byte, at int) {
	b = append(b, `{"round_id":`...)
	b = strconv.AppendUint(b, t.RoundID, 10)
	b = append(b, `,"base_version":`...)
	b = strconv.AppendInt(b, int64(t.BaseVersion), 10)
	b = append(b, `,"model_kind":`...)
	b = appendString(b, string(t.ModelKind))
	b = append(b, `,"dim":`...)
	b = strconv.AppendInt(b, int64(t.Dim), 10)
	if withParams {
		b = append(b, `,"params":`...)
	}
	at = len(b)
	b = append(b, `,"local_steps":`...)
	b = strconv.AppendInt(b, int64(t.LocalSteps), 10)
	b = append(b, `,"deadline_unix_ms":`...)
	b = strconv.AppendInt(b, t.Deadline.UnixMilli(), 10)
	b = appendOmitEmpty(b, `,"update_scheme":`, t.UpdateScheme.String())
	return append(b, "}\n"...), at
}

// acceptedReply is the encoded UpdateResponse{Accepted: true}.
var acceptedReply = []byte("{\"accepted\":true}\n")

func appendOmitEmpty(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, key...), v)
}

// appendString quotes v as encoding/json does. A string with nothing to
// escape — every cohort, scheme and model name this server ships — is
// copied; anything else goes through json.Marshal.
func appendString(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(v)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, v...)
	return append(b, '"')
}
