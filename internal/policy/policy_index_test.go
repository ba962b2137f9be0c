package policy

import (
	"fmt"
	"testing"

	"padll/internal/posix"
)

// indexTestRules is a mixed rule set covering every matcher dimension.
func indexTestRules() []Rule {
	return []Rule{
		{ID: "open", Match: Matcher{Ops: []posix.Op{posix.OpOpen, posix.OpOpen64, posix.OpCreat}}, Rate: 100},
		{ID: "meta", Match: Matcher{Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory}}, Rate: 200},
		{ID: "data", Match: Matcher{Classes: []posix.Class{posix.ClassData}}, Rate: 300},
		{ID: "scratch", Match: Matcher{PathPrefix: "/pfs/scratch/"}, Rate: 400},
		{ID: "job2", Match: Matcher{JobID: "job2"}, Rate: 500},
		{ID: "bob-open", Match: Matcher{Ops: []posix.Op{posix.OpOpen}, User: "bob"}, Rate: 600},
		{ID: "all", Match: Matcher{}, Rate: Unlimited},
	}
}

// selectReference is selection by its definition, with neither the
// per-op index nor the sorted order: of the rules whose Matches accepts
// req, the most specific, ties to the lower ID. The result points into
// the copy Rules returns, its one allocation.
func selectReference(rs *RuleSet, req *posix.Request) *Rule {
	var best *Rule
	rules := rs.Rules()
	for i := range rules {
		r := &rules[i]
		if !r.Match.Matches(req) {
			continue
		}
		if best == nil || r.Match.Specificity() > best.Match.Specificity() ||
			r.Match.Specificity() == best.Match.Specificity() && r.ID < best.ID {
			best = r
		}
	}
	return best
}

// TestSelectIndexEquivalence checks the per-op dispatch index returns
// exactly what the linear specificity scan returns, over every op and a
// grid of request attributes, including after removals re-index the set.
func TestSelectIndexEquivalence(t *testing.T) {
	rs := NewRuleSet(indexTestRules()...)
	check := func() {
		t.Helper()
		for op := 0; op < posix.NumOps; op++ {
			for _, path := range []string{"/pfs/scratch/x", "/pfs/a", ""} {
				for _, job := range []string{"job1", "job2"} {
					for _, user := range []string{"alice", "bob"} {
						req := &posix.Request{Op: posix.Op(op), Path: path, JobID: job, User: user}
						got, want := rs.Select(req), selectReference(rs, req)
						gotID, wantID := "", ""
						if got != nil {
							gotID = got.ID
						}
						if want != nil {
							wantID = want.ID
						}
						if gotID != wantID {
							t.Fatalf("op=%v path=%q job=%s user=%s: indexed Select=%q, linear scan=%q",
								posix.Op(op), path, job, user, gotID, wantID)
						}
					}
				}
			}
		}
	}
	check()
	rs.Remove("all")
	rs.Remove("meta")
	check()
	rs.Upsert(Rule{ID: "meta", Match: Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 50})
	check()
}

// TestSelectInvalidOpFallsBack ensures requests with out-of-range ops
// still classify via the linear path instead of indexing out of bounds.
func TestSelectInvalidOpFallsBack(t *testing.T) {
	rs := NewRuleSet(Rule{ID: "all", Match: Matcher{JobID: "job1"}, Rate: 1})
	req := &posix.Request{Op: posix.Op(9999), JobID: "job1"}
	r := rs.Select(req)
	if r == nil || r.ID != "all" {
		t.Fatalf("Select with invalid op = %v, want rule \"all\"", r)
	}
}

// TestCouldMatchOp pins the index predicate against Matches: for every
// op, a rule excluded by couldMatchOp must never match a request with
// that op, whatever the other attributes.
func TestCouldMatchOp(t *testing.T) {
	for _, r := range indexTestRules() {
		for op := 0; op < posix.NumOps; op++ {
			m := r.Match
			if m.couldMatchOp(posix.Op(op)) {
				continue
			}
			req := &posix.Request{Op: posix.Op(op), Path: "/pfs/scratch/x", JobID: "job2", User: "bob"}
			if m.Matches(req) {
				t.Fatalf("rule %s: couldMatchOp(%v) = false but Matches succeeded", r.ID, posix.Op(op))
			}
		}
	}
}

// TestOpDecides pins Select's skip of index candidates: when opDecides
// is true, op candidacy must imply a full match for any path/job/user.
func TestOpDecides(t *testing.T) {
	for _, r := range indexTestRules() {
		m := r.Match
		if !m.opDecides() {
			continue
		}
		for op := 0; op < posix.NumOps; op++ {
			if !m.couldMatchOp(posix.Op(op)) {
				continue
			}
			req := &posix.Request{Op: posix.Op(op), Path: "/x", JobID: "j", User: "u"}
			if !m.Matches(req) {
				t.Fatalf("rule %s: opDecides && couldMatchOp(%v) but Matches failed", r.ID, posix.Op(op))
			}
		}
	}
}

// TestMatcherPrefixCompile checks the precompiled trailing-slash prefix
// agrees with the uncompiled fallback, including the corner cases the
// TrimSuffix normalization covers.
func TestMatcherPrefixCompile(t *testing.T) {
	cases := []struct {
		prefix string
		path   string
		want   bool
	}{
		{"/pfs/scratch", "/pfs/scratch", true},
		{"/pfs/scratch", "/pfs/scratch/x", true},
		{"/pfs/scratch", "/pfs/scratchy", false},
		{"/pfs/scratch/", "/pfs/scratch/x", true},
		{"/pfs/scratch/", "/pfs/scratchy", false},
		{"/pfs/scratch/", "/pfs/scratch/", true},
	}
	for _, c := range cases {
		uncompiled := Matcher{PathPrefix: c.prefix}
		compiled := Matcher{PathPrefix: c.prefix}
		compiled.compile()
		req := &posix.Request{Op: posix.OpOpen, Path: c.path}
		if got := uncompiled.Matches(req); got != c.want {
			t.Errorf("uncompiled %q vs %q = %v, want %v", c.prefix, c.path, got, c.want)
		}
		if got := compiled.Matches(req); got != c.want {
			t.Errorf("compiled %q vs %q = %v, want %v", c.prefix, c.path, got, c.want)
		}
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	rs := NewRuleSet(indexTestRules()...)
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1", User: "alice"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs.Select(req) == nil {
			b.Fatal("no match")
		}
	}
}

func BenchmarkSelectLinear(b *testing.B) {
	rs := NewRuleSet(indexTestRules()...)
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1", User: "alice"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if selectReference(rs, req) == nil {
			b.Fatal("no match")
		}
	}
}

func ExampleRuleSet_Select() {
	rs := NewRuleSet(
		Rule{ID: "open", Match: Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 100},
		Rule{ID: "meta", Match: Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 200},
	)
	r := rs.Select(&posix.Request{Op: posix.OpOpen, Path: "/pfs/f"})
	fmt.Println(r.ID)
	// Output: open
}
