package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"mobieyes/internal/obs/trace"
)

// A View is one read-only debug view: filters in, a Body out. Each package
// builds its views next to its data; two thin adapters serve every view
// alike, ServeHTTP at Path (mounted by NewMux, listed by the /debug/ index)
// and ServeWords as the admin Word command (listed by help), parsing filters
// by the same rules, so a text answer is byte-identical on both transports.
type View struct {
	Name string   // short name, e.g. "events"
	Path string   // HTTP path, e.g. "/debug/events"
	Word string   // admin command word, e.g. "TRACE"
	Keys []string // the filter keys Get accepts
	Doc  string   // one line for the /debug/ index and admin help
	// Get answers one request. Its errors wrap ErrDisabled (the view's
	// backing is off) or ErrNotFound (no such entity), or are bad arguments.
	Get func(Args) (Body, error)
	// Raw, when set, streams the view's data in its native binary form for
	// ?format=raw; it reports ErrDisabled before writing anything.
	Raw func(io.Writer) error
}

// A Body is a view's answer: WriteText renders it for people (the HTTP
// default and the admin reply) and encoding/json the same value for
// ?format=json.
type Body interface {
	WriteText(io.Writer) error
}

// TextWriter streams a Body's text straight to W and keeps the first error,
// so WriteText neither checks every line nor buffers the whole reply.
type TextWriter struct {
	W   io.Writer
	Err error
}

// Printf writes one formatted piece unless an earlier write failed.
func (t *TextWriter) Printf(format string, args ...any) {
	if t.Err == nil {
		_, t.Err = fmt.Fprintf(t.W, format, args...)
	}
}

// ErrDisabled and ErrNotFound classify view errors: HTTP answers 404 for
// both and 400 for any other error; the admin port answers "err <error>".
var (
	ErrDisabled = errors.New("disabled")
	ErrNotFound = errors.New("not found")
)

// Disabled is the error of a view whose backing is off, e.g. "tracing
// disabled".
func Disabled(what string) error { return fmt.Errorf("%s %w", what, ErrDisabled) }

// Args are a request's filters, key → value, each checked by ParseQuery's
// one rule per key, so a view only reads them back.
type Args map[string]string

// Int returns an integer filter and whether the request gave it.
func (a Args) Int(key string) (int64, bool) {
	v, ok := a[key]
	n, _ := strconv.ParseInt(v, 10, 64) // checked by ParseQuery
	return n, ok
}

// Scope returns which one of the exclusive keys the request gave, and its
// value: "" when it gave none, an error when it gave more than one.
func (a Args) Scope(keys ...string) (string, int64, error) {
	var scope string
	for _, k := range keys {
		if _, ok := a[k]; ok && scope != "" {
			return "", 0, fmt.Errorf("filters %s and %s exclude each other", scope, k)
		} else if ok {
			scope = k
		}
	}
	n, _ := a.Int(scope)
	return scope, n, nil
}

// ParseWords parses admin filter words for a view accepting keys: "key
// value" pairs, where a bare integer means n. It checks them as ParseQuery
// checks their URL encoding, so both transports answer alike.
func ParseWords(words, keys []string) (Args, error) {
	q := url.Values{}
	for len(words) > 0 {
		key, val := "n", words[0]
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			if len(words) < 2 {
				return nil, fmt.Errorf("filter %s needs a value", val)
			}
			key, val, words = val, words[1], words[1:]
		}
		words = words[1:]
		q.Add(key, val)
	}
	return ParseQuery(q, keys)
}

// ParseQuery parses URL query filters for a view accepting keys, checking
// them in key order by one rule per key: the view must accept the key, a key
// may appear once, an empty value means an absent key, actor is free text,
// causal is 0 or 1, buf is at least 1, and every other key is a non-negative
// integer.
func ParseQuery(q url.Values, keys []string) (Args, error) {
	names := make([]string, 0, len(q))
	for key := range q {
		names = append(names, key)
	}
	slices.Sort(names)
	a := Args{}
	for _, key := range names {
		if !slices.Contains(keys, key) {
			return nil, fmt.Errorf("unknown filter %q", key)
		} else if len(q[key]) > 1 {
			return nil, fmt.Errorf("filter %s given twice", key)
		}
		val := q.Get(key)
		if val == "" {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); key != "actor" &&
			(err != nil || n < 0 || (key == "causal" && n > 1) || (key == "buf" && n < 1)) {
			return nil, fmt.Errorf("bad %s %q", key, val)
		}
		a[key] = val
	}
	return a, nil
}

// ServeHTTP is the HTTP adapter: URL query → Args → Get, rendered as text,
// or as indented JSON with ?format=json; ?format=raw streams Raw where set.
func (v View) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	format := q.Get("format")
	if format == "raw" && v.Raw != nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := v.Raw(w); err != nil {
			httpError(w, err)
		}
		return
	}
	q.Del("format")
	args, err := ParseQuery(q, v.Keys)
	var body Body
	if err == nil {
		body, err = v.Get(args)
	}
	switch {
	case err != nil:
		httpError(w, err)
	case format == "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	case format == "" || format == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body.WriteText(w)
	default:
		http.Error(w, "bad format "+strconv.Quote(format), http.StatusBadRequest)
	}
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrDisabled) || errors.Is(err, ErrNotFound) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

// ServeWords is the admin adapter: the words after the command word → Args
// → Get, answered as the text body and a "." line, or one "err …" line.
func (v View) ServeWords(w io.Writer, words []string) {
	args, err := ParseWords(words, v.Keys)
	var body Body
	if err == nil {
		body, err = v.Get(args)
	}
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
	} else if body.WriteText(w) == nil {
		io.WriteString(w, ".\n")
	}
}

// WriteIndex lists views one per line — the admin word when admin is set,
// else the URL path — with their filter keys and doc, then the filter
// rules: the /debug/ index, and the view half of the admin help reply.
func WriteIndex(w io.Writer, views []View, admin bool) {
	for _, v := range views {
		usage := v.Path
		if admin {
			usage = strings.Join(append([]string{v.Word}, v.Keys...), " ")
		} else if len(v.Keys) > 0 {
			usage += "?" + strings.Join(v.Keys, "=&") + "="
		}
		fmt.Fprintf(w, "%-40s %s\n", usage, v.Doc)
	}
	how := "Filters are ?key=value; ?format=json answers JSON (history: ?format=raw, the binary log)."
	if admin {
		how = "Filters are key value pairs; a bare number is n."
	}
	fmt.Fprintln(w, how, "n: the newest N (default 100, 0 = all); causal 1: every chain that touched oid/qid, whole; scope filters exclude each other.")
}

// Events is the events view's body: flight-recorder events, oldest first.
type Events []trace.Event

// WriteText writes one event per line.
func (e Events) WriteText(w io.Writer) error { return trace.Format(w, e) }

// EventsView is the flight recorder's view (/debug/events, admin TRACE):
// the newest n events matching the trace/oid/qid/actor filters, or with
// causal 1 every chain that ever touched oid/qid. A nil rec is disabled.
func EventsView(rec *trace.Recorder) View {
	return View{
		Name: "events", Path: "/debug/events", Word: "TRACE",
		Keys: []string{"trace", "oid", "qid", "actor", "n", "causal"},
		Doc:  "flight-recorder events (needs -trace-events)",
		Get: func(a Args) (Body, error) {
			if rec == nil {
				return nil, Disabled("tracing")
			}
			oid, _ := a.Int("oid")
			qid, _ := a.Int("qid")
			if causal, _ := a.Int("causal"); causal == 1 && (oid != 0 || qid != 0) {
				return Events(rec.Causal(oid, qid)), nil
			}
			tid, _ := a.Int("trace")
			n, ok := a.Int("n")
			if !ok {
				n = 100
			}
			return Events(rec.Events(trace.Filter{
				Trace: trace.ID(tid), OID: oid, QID: qid, Actor: a["actor"], Limit: int(n),
			})), nil
		},
	}
}
