package policy

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"padll/internal/posix"
)

func req(op posix.Op, path, job, user string) *posix.Request {
	return &posix.Request{Op: op, Path: path, JobID: job, User: user}
}

func TestEmptyMatcherMatchesEverything(t *testing.T) {
	m := &Matcher{}
	for _, op := range posix.AllOps() {
		if !m.Matches(req(op, "/any", "j", "u")) {
			t.Errorf("wildcard matcher rejected %v", op)
		}
	}
}

func TestMatcherByOp(t *testing.T) {
	m := &Matcher{Ops: []posix.Op{posix.OpOpen, posix.OpClose}}
	if !m.Matches(req(posix.OpOpen, "", "", "")) || !m.Matches(req(posix.OpClose, "", "", "")) {
		t.Error("op matcher rejected listed op")
	}
	if m.Matches(req(posix.OpRead, "", "", "")) {
		t.Error("op matcher accepted unlisted op")
	}
}

func TestMatcherByClass(t *testing.T) {
	m := &Matcher{Classes: []posix.Class{posix.ClassMetadata}}
	if !m.Matches(req(posix.OpGetAttr, "", "", "")) {
		t.Error("class matcher rejected getattr")
	}
	if m.Matches(req(posix.OpRead, "", "", "")) {
		t.Error("class matcher accepted data op")
	}
}

func TestMatcherByPathPrefix(t *testing.T) {
	m := &Matcher{PathPrefix: "/scratch/foo"}
	if !m.Matches(req(posix.OpOpen, "/scratch/foo/f", "", "")) {
		t.Error("rejected path under prefix")
	}
	if !m.Matches(req(posix.OpOpen, "/scratch/foo", "", "")) {
		t.Error("rejected exact prefix path")
	}
	if m.Matches(req(posix.OpOpen, "/scratch/foobar", "", "")) {
		t.Error("matched non-boundary prefix")
	}
	if m.Matches(req(posix.OpOpen, "/other", "", "")) {
		t.Error("matched unrelated path")
	}
}

func TestMatcherByJobAndUser(t *testing.T) {
	m := &Matcher{JobID: "job1", User: "alice"}
	if !m.Matches(req(posix.OpOpen, "", "job1", "alice")) {
		t.Error("rejected matching job+user")
	}
	if m.Matches(req(posix.OpOpen, "", "job2", "alice")) {
		t.Error("accepted wrong job")
	}
	if m.Matches(req(posix.OpOpen, "", "job1", "bob")) {
		t.Error("accepted wrong user")
	}
}

func TestMatcherConjunction(t *testing.T) {
	m := &Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1", PathPrefix: "/pfs"}
	if !m.Matches(req(posix.OpOpen, "/pfs/x", "j1", "")) {
		t.Error("rejected fully matching request")
	}
	if m.Matches(req(posix.OpOpen, "/pfs/x", "j2", "")) {
		t.Error("conjunction ignored job constraint")
	}
	if m.Matches(req(posix.OpClose, "/pfs/x", "j1", "")) {
		t.Error("conjunction ignored op constraint")
	}
}

func TestSpecificityOrdering(t *testing.T) {
	opRule := Matcher{Ops: []posix.Op{posix.OpOpen}}
	classRule := Matcher{Classes: []posix.Class{posix.ClassMetadata}}
	allRule := Matcher{}
	if !(opRule.Specificity() > classRule.Specificity()) {
		t.Error("op constraint must be more specific than class constraint")
	}
	if !(classRule.Specificity() > allRule.Specificity()) {
		t.Error("class constraint must be more specific than wildcard")
	}
}

func TestRuleSetSelectsMostSpecific(t *testing.T) {
	rs := NewRuleSet(
		Rule{ID: "all", Match: Matcher{}, Rate: 1000},
		Rule{ID: "meta", Match: Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 500},
		Rule{ID: "open", Match: Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 100},
	)
	if r := rs.Select(req(posix.OpOpen, "", "", "")); r == nil || r.ID != "open" {
		t.Errorf("open selected %v, want open rule", r)
	}
	if r := rs.Select(req(posix.OpGetAttr, "", "", "")); r == nil || r.ID != "meta" {
		t.Errorf("getattr selected %v, want meta rule", r)
	}
	if r := rs.Select(req(posix.OpRead, "", "", "")); r == nil || r.ID != "all" {
		t.Errorf("read selected %v, want all rule", r)
	}
}

func TestRuleSetSelectNoMatch(t *testing.T) {
	rs := NewRuleSet(Rule{ID: "j1", Match: Matcher{JobID: "job1"}, Rate: 10})
	if r := rs.Select(req(posix.OpOpen, "", "job2", "")); r != nil {
		t.Errorf("selected %v for non-matching request", r)
	}
}

func TestRuleSetUpsertReplaces(t *testing.T) {
	rs := NewRuleSet(Rule{ID: "a", Rate: 10})
	rs.Upsert(Rule{ID: "a", Rate: 99})
	if rs.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rs.Len())
	}
	if got := rs.Rules()[0].Rate; got != 99 {
		t.Errorf("rate after upsert = %v, want 99", got)
	}
}

func TestRuleSetRetuneInPlace(t *testing.T) {
	open := Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"}
	rs := NewRuleSet(Rule{ID: "a", Match: open, Rate: 10, Burst: 4}, Rule{ID: "b", Rate: 20})
	rs.SetRate("a", 99)
	rs.SetRate("missing", 1)
	if got := rs.Rules(); len(got) != 2 || got[0].Rate != 99 || got[0].Burst != 4 || got[1].Rate != 20 {
		t.Fatalf("after SetRate(a, 99): %+v", got)
	}
	if !rs.Retune(Rule{ID: "a", Match: Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"}, Rate: 7, Burst: 2}) {
		t.Fatal("Retune refused a rule differing only in rate and burst")
	}
	if got := rs.Select(req(posix.OpOpen, "/f", "j1", "")); got == nil || got.ID != "a" || got.Rate != 7 || got.Burst != 2 {
		t.Fatalf("after Retune, Select = %+v", got)
	}
	for name, r := range map[string]Rule{
		"unknown ID":      {ID: "c", Match: open, Rate: 1},
		"changed matcher": {ID: "a", Match: Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j2"}, Rate: 1},
		"changed ops":     {ID: "a", Match: Matcher{Ops: []posix.Op{posix.OpClose}, JobID: "j1"}, Rate: 1},
		"changed classes": {ID: "a", Match: Matcher{Ops: open.Ops, Classes: []posix.Class{posix.ClassData}, JobID: "j1"}, Rate: 1},
		"changed action":  {ID: "a", Match: open, Rate: 1, Action: ActionDrop},
	} {
		if rs.Retune(r) {
			t.Errorf("Retune accepted a rule with %s", name)
		}
	}
	if got := rs.Rules()[0]; got.Rate != 7 || got.Burst != 2 || got.Action != ActionShape {
		t.Errorf("a refused Retune changed the rule: %+v", got)
	}
}

func TestRuleSetRemove(t *testing.T) {
	rs := NewRuleSet(Rule{ID: "a", Rate: 10}, Rule{ID: "b", Rate: 20})
	if !rs.Remove("a") {
		t.Error("Remove returned false for existing rule")
	}
	if rs.Remove("a") {
		t.Error("Remove returned true for missing rule")
	}
	if rs.Len() != 1 {
		t.Errorf("Len = %d, want 1", rs.Len())
	}
}

func TestEffectiveBurstDefaults(t *testing.T) {
	cases := []struct {
		rule Rule
		want float64
	}{
		{Rule{Rate: 1000}, 100},
		{Rule{Rate: 1000, Burst: 5}, 5},
		{Rule{Rate: 2}, 1},
		{Rule{Rate: Unlimited}, 1},
	}
	for _, c := range cases {
		if got := c.rule.EffectiveBurst(); got != c.want {
			t.Errorf("EffectiveBurst(%+v) = %v, want %v", c.rule, got, c.want)
		}
	}
}

func TestParseBasicRule(t *testing.T) {
	r, err := Parse("limit id:open-cap job:job1 op:open rate:10k burst:500")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "open-cap" || r.Match.JobID != "job1" || r.Rate != 10000 || r.Burst != 500 {
		t.Errorf("parsed = %+v", r)
	}
	if len(r.Match.Ops) != 1 || r.Match.Ops[0] != posix.OpOpen {
		t.Errorf("ops = %v", r.Match.Ops)
	}
}

func TestParseClassAndPath(t *testing.T) {
	r, err := Parse("limit id:m class:metadata path:/scratch/foo rate:75k")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rate != 75000 || r.Match.PathPrefix != "/scratch/foo" {
		t.Errorf("parsed = %+v", r)
	}
	if len(r.Match.Classes) != 1 || r.Match.Classes[0] != posix.ClassMetadata {
		t.Errorf("classes = %v", r.Match.Classes)
	}
}

func TestParseUnlimited(t *testing.T) {
	r, err := Parse("limit id:pass path:/tmp rate:unlimited")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rate != Unlimited {
		t.Errorf("rate = %v, want Unlimited", r.Rate)
	}
}

func TestParseMillionSuffixAndFloat(t *testing.T) {
	r, err := Parse("limit id:x rate:1.5m")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rate != 1.5e6 {
		t.Errorf("rate = %v, want 1.5e6", r.Rate)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"throttle id:x rate:5", // wrong verb
		"limit rate:5",         // missing id
		"limit id:x",           // missing rate
		"limit id:x rate:fast", // bad rate
		"limit id:x rate:-5",   // negative rate
		"limit id:x op:bogus rate:5",
		"limit id:x class:bogus rate:5",
		"limit id:x rate:5 burst:-2",
		"limit id:x frob:1 rate:5", // unknown key
		"limit id:x token rate:5",  // malformed token
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted invalid rule", s)
		}
	}
}

func TestParseAllWithCommentsAndBlanks(t *testing.T) {
	text := `
# cluster policy
limit id:meta class:metadata rate:300k

limit id:open op:open rate:50k
`
	rules, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
}

func TestParseAllReportsLine(t *testing.T) {
	_, err := ParseAll("limit id:a rate:5\nlimit broken\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	orig, err := Parse("limit id:open-cap job:job1 op:open rate:10k burst:500")
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", orig.String(), err)
	}
	if re.ID != orig.ID || re.Rate != orig.Rate || re.Match.JobID != orig.Match.JobID {
		t.Errorf("round trip: %+v vs %+v", orig, re)
	}
}

func TestMatcherStringForms(t *testing.T) {
	if got := (&Matcher{}).String(); got != "all" {
		t.Errorf("wildcard String = %q", got)
	}
	m := &Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j"}
	if got := m.String(); got != "op:open job:j" {
		t.Errorf("String = %q", got)
	}
}

// Property: Select always returns a rule whose matcher matches, and no
// unmatched rule is more specific than the selected one.
func TestSelectSpecificityProperty(t *testing.T) {
	rs := NewRuleSet(
		Rule{ID: "all", Rate: 1},
		Rule{ID: "meta", Match: Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 2},
		Rule{ID: "open-j1", Match: Matcher{Ops: []posix.Op{posix.OpOpen}, JobID: "j1"}, Rate: 3},
		Rule{ID: "j1", Match: Matcher{JobID: "j1"}, Rate: 4},
	)
	f := func(opRaw uint8, jobRaw bool) bool {
		op := posix.Op(int(opRaw) % posix.NumOps)
		job := "j2"
		if jobRaw {
			job = "j1"
		}
		r := req(op, "/p", job, "")
		sel := rs.Select(r)
		if sel == nil {
			return false // the "all" rule matches everything
		}
		if !sel.Match.Matches(r) {
			return false
		}
		for _, other := range rs.Rules() {
			if other.Match.Matches(r) && other.Match.Specificity() > sel.Match.Specificity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseAction(t *testing.T) {
	r, err := Parse("limit id:p op:open rate:100 action:drop")
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ActionDrop {
		t.Errorf("action = %v, want drop", r.Action)
	}
	if _, err := Parse("limit id:p rate:1 action:teleport"); err == nil {
		t.Error("unknown action accepted")
	}
	// Default is shape, and shape parses explicitly too.
	r, err = Parse("limit id:p rate:1 action:shape")
	if err != nil || r.Action != ActionShape {
		t.Errorf("shape parse = %+v, %v", r, err)
	}
}

func TestRuleStringIncludesDropAction(t *testing.T) {
	r := Rule{ID: "p", Rate: 100, Action: ActionDrop}
	re, err := Parse(r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if re.Action != ActionDrop {
		t.Errorf("action lost in round trip: %q", r.String())
	}
}

// Property: any rule assembled from valid components survives a
// String -> Parse round trip with identical semantics.
func TestRuleRoundTripProperty(t *testing.T) {
	f := func(opRaw, classRaw uint8, rateRaw uint32, burstRaw uint16, drop bool, jobSeed uint8) bool {
		r := Rule{
			ID:    fmt.Sprintf("r%d", jobSeed),
			Rate:  float64(rateRaw%1_000_000) + 1,
			Burst: float64(burstRaw%1000) + 1,
		}
		if drop {
			r.Action = ActionDrop
		}
		if opRaw%3 == 0 {
			r.Match.Ops = []posix.Op{posix.Op(int(opRaw) % posix.NumOps)}
		}
		if classRaw%3 == 0 {
			r.Match.Classes = []posix.Class{posix.Class(int(classRaw) % posix.NumClasses)}
		}
		if jobSeed%2 == 0 {
			r.Match.JobID = fmt.Sprintf("job%d", jobSeed)
		}
		re, err := Parse(r.String())
		if err != nil {
			return false
		}
		if re.ID != r.ID || re.Burst != r.Burst || re.Action != r.Action {
			return false
		}
		// Rates may lose precision through the k/m formatter only for
		// values it renders exactly; formatRate falls back to %g, which
		// round-trips float64 exactly.
		if re.Rate != r.Rate {
			return false
		}
		if len(re.Match.Ops) != len(r.Match.Ops) || len(re.Match.Classes) != len(r.Match.Classes) {
			return false
		}
		return re.Match.JobID == r.Match.JobID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
