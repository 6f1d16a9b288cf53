package obs

import (
	"maps"
	"net/url"
	"strings"
	"testing"
)

// allKeys is every filter key a view accepts anywhere.
var allKeys = []string{"trace", "oid", "qid", "actor", "n", "causal", "cell", "station", "buf"}

// TestViewArgsRules pins the one rule per key, shared by both front ends.
func TestViewArgsRules(t *testing.T) {
	for _, tc := range []struct {
		words string
		keys  []string
		want  Args // nil: rejected
	}{
		{"", allKeys, Args{}},
		{"10", allKeys, Args{"n": "10"}},
		{"oid 5 20", allKeys, Args{"oid": "5", "n": "20"}},
		{"qid 7 causal 1 actor node1", allKeys, Args{"qid": "7", "causal": "1", "actor": "node1"}},
		{"n 0", allKeys, Args{"n": "0"}},
		{"oid 1 oid 2", allKeys, nil},    // twice
		{"3 4", allKeys, nil},            // n twice
		{"oid", allKeys, nil},            // no value
		{"oid -1", allKeys, nil},         // negative
		{"oid x", allKeys, nil},          // not a number
		{"causal 2", allKeys, nil},       // 0 or 1
		{"buf 0", allKeys, nil},          // at least 1
		{"cell 3", []string{"oid"}, nil}, // unknown to the view
	} {
		got, err := ParseWords(strings.Fields(tc.words), tc.keys)
		if (tc.want == nil) != (err != nil) || (err == nil && !maps.Equal(got, tc.want)) {
			t.Errorf("ParseWords(%q) = %v, %v; want %v", tc.words, got, err, tc.want)
		}
	}
	q, _ := url.ParseQuery("oid=&qid=3")
	if got, err := ParseQuery(q, []string{"oid", "qid"}); err != nil || !maps.Equal(got, Args{"qid": "3"}) {
		t.Errorf("ParseQuery skips empty values: %v, %v", got, err)
	}
	q, _ = url.ParseQuery("bogus=")
	if _, err := ParseQuery(q, allKeys); err == nil {
		t.Error("ParseQuery accepted an unknown key with an empty value")
	}
	// Two bad filters: both front ends name the same one, every time.
	_, want := ParseWords([]string{"zeta", "1", "oid", "x", "alpha", "2"}, allKeys)
	q, _ = url.ParseQuery("zeta=1&oid=x&alpha=2")
	for range 20 {
		if _, err := ParseQuery(q, allKeys); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("ParseQuery error %v, ParseWords error %v", err, want)
		}
	}
	if want.Error() != `unknown filter "alpha"` {
		t.Errorf("first bad filter in key order: %v", want)
	}
	if _, _, err := (Args{"qid": "1", "oid": "2"}).Scope("qid", "oid"); err == nil {
		t.Error("Scope accepted two exclusive filters")
	}
	if scope, id, err := (Args{"oid": "2"}).Scope("qid", "oid"); scope != "oid" || id != 2 || err != nil {
		t.Errorf("Scope = %q %d %v", scope, id, err)
	}
}

// FuzzViewArgs fuzzes the admin-words and URL-query front ends of the one
// filter parser: neither panics, and every admin line it accepts parses to
// the same Args as that line's URL encoding.
func FuzzViewArgs(f *testing.F) {
	for _, s := range []string{"", "10", "oid 5", "qid 7 causal 1", "actor router n 0",
		"oid 1 oid 2", "cell -1", "bogus 3", "n", "causal 2", "buf 0", "3 4", "actor a=b&c%"} {
		f.Add(s, "oid=5&n=3&format=json")
	}
	f.Fuzz(func(t *testing.T, line, query string) {
		if a, err := ParseWords(strings.Fields(line), allKeys); err == nil {
			q := url.Values{}
			for k, v := range a {
				q.Set(k, v)
			}
			back, err := url.ParseQuery(q.Encode())
			if err != nil {
				t.Fatalf("%q: own encoding %q does not parse: %v", line, q.Encode(), err)
			}
			if b, err := ParseQuery(back, allKeys); err != nil || !maps.Equal(a, b) {
				t.Fatalf("%q: words give %v, its URL %q gives %v (%v)", line, a, q.Encode(), b, err)
			}
		}
		if q, err := url.ParseQuery(query); err == nil {
			ParseQuery(q, allKeys)
		}
	})
}
