// Package policy defines PADLL's rule model: the vocabulary system
// administrators use to express QoS intents on the control plane, and the
// matching machinery data-plane stages use to classify intercepted
// requests into enforcement queues (§III-A request differentiation,
// §III-B simple policies).
//
// A Rule pairs a Matcher — a conjunction of request attributes (operation
// type, operation class, path prefix, job, user) — with an enforcement
// target (rate and burst). Rules are ordered by specificity, so "throttle
// open calls of job1" beats "throttle all metadata of job1" beats
// "throttle everything".
package policy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"padll/internal/posix"
)

// Unlimited as a rule rate means "do not throttle" (passthrough).
const Unlimited float64 = -1

// Matcher is a conjunction of request attributes; zero-valued fields are
// wildcards. A Matcher with no constraints matches every request.
type Matcher struct {
	// Ops restricts matching to specific operation types.
	Ops []posix.Op
	// Classes restricts matching to operation classes.
	Classes []posix.Class
	// PathPrefix restricts matching to paths under a prefix.
	PathPrefix string
	// JobID restricts matching to a single job.
	JobID string
	// User restricts matching to a single user.
	User string

	// prefixSlash caches PathPrefix with exactly one trailing slash for
	// the hot-path prefix test. It is computed by compile() when a rule
	// enters a RuleSet; matchers built by hand fall back to computing it
	// per call. Unexported, so it never travels over the wire: rpcio's
	// wire registry lists it as the one field its codec leaves behind.
	prefixSlash string
}

// compile precomputes derived matcher state (the slash-terminated path
// prefix) so the per-request path allocates nothing.
func (m *Matcher) compile() {
	if m.PathPrefix != "" {
		m.prefixSlash = strings.TrimSuffix(m.PathPrefix, "/") + "/"
	} else {
		m.prefixSlash = ""
	}
}

// equal reports whether o constrains requests exactly as m does.
func (m *Matcher) equal(o *Matcher) bool {
	return m.PathPrefix == o.PathPrefix && m.JobID == o.JobID && m.User == o.User &&
		slices.Equal(m.Ops, o.Ops) && slices.Equal(m.Classes, o.Classes)
}

// Matches reports whether the request satisfies every constraint.
func (m *Matcher) Matches(req *posix.Request) bool {
	return m.couldMatchOp(req.Op) && m.matchesRest(req)
}

// matchesRest tests the constraints couldMatchOp leaves open: job, user
// and path.
func (m *Matcher) matchesRest(req *posix.Request) bool {
	if m.JobID != "" && req.JobID != m.JobID {
		return false
	}
	if m.User != "" && req.User != m.User {
		return false
	}
	if m.PathPrefix != "" {
		ps := m.prefixSlash
		if ps == "" {
			// fallback for hand-built matchers only; compiled rules hit the cached prefixSlash above
			ps = strings.TrimSuffix(m.PathPrefix, "/") + "/"
		}
		if req.Path != m.PathPrefix && !strings.HasPrefix(req.Path, ps) {
			return false
		}
	}
	return true
}

// couldMatchOp reports whether a request carrying op can possibly satisfy
// the matcher's op/class constraints. It evaluates only the attributes
// known from the operation type, so it can be decided per-op ahead of
// time — the basis of RuleSet's per-op dispatch index.
func (m *Matcher) couldMatchOp(op posix.Op) bool {
	if len(m.Ops) > 0 && !slices.Contains(m.Ops, op) {
		return false
	}
	return len(m.Classes) == 0 || slices.Contains(m.Classes, op.Class())
}

// opDecides reports whether op/class candidacy alone implies a full
// match: a matcher with no path, job or user constraint accepts every
// request whose operation passes couldMatchOp.
func (m *Matcher) opDecides() bool {
	return m.PathPrefix == "" && m.JobID == "" && m.User == ""
}

// Specificity scores how narrow the matcher is; higher wins when several
// rules match one request. Operation-type constraints are narrower than
// class constraints; job/user/path constraints add on top.
func (m *Matcher) Specificity() int {
	s := 0
	if len(m.Ops) > 0 {
		s += 8
	}
	if len(m.Classes) > 0 {
		s += 4
	}
	if m.PathPrefix != "" {
		s += 2 + len(m.PathPrefix)
	}
	if m.JobID != "" {
		s += 2
	}
	if m.User != "" {
		s += 1
	}
	return s
}

// String renders the matcher in rule-DSL form.
func (m *Matcher) String() string {
	var parts []string
	for _, op := range m.Ops {
		parts = append(parts, "op:"+op.String())
	}
	for _, cl := range m.Classes {
		parts = append(parts, "class:"+cl.String())
	}
	if m.PathPrefix != "" {
		parts = append(parts, "path:"+m.PathPrefix)
	}
	if m.JobID != "" {
		parts = append(parts, "job:"+m.JobID)
	}
	if m.User != "" {
		parts = append(parts, "user:"+m.User)
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// Action selects the enforcement mechanism applied when a queue's bucket
// runs dry. The prototype's data plane is built on PAIO-style pluggable
// mechanisms; shaping is the paper's default, policing is the classic
// alternative for callers that prefer fast failure over queueing delay.
type Action int

const (
	// ActionShape blocks the request until tokens are available
	// (traffic shaping — the paper's behaviour).
	ActionShape Action = iota
	// ActionDrop rejects the request immediately with ErrRateLimited
	// when no token is available (traffic policing).
	ActionDrop
)

// String returns the DSL token for the action.
func (a Action) String() string {
	if a == ActionDrop {
		return "drop"
	}
	return "shape"
}

// Rule is one enforcement directive: requests matching Match are served
// from a queue whose token bucket refills at Rate with the given Burst.
type Rule struct {
	// ID names the rule (and its stage queue) uniquely.
	ID string
	// Match selects the requests this rule governs.
	Match Matcher
	// Rate is the queue's token refill rate in requests/second;
	// Unlimited means passthrough.
	Rate float64
	// Burst is the token bucket capacity; when zero a burst of
	// max(1, Rate/10) is applied at enforcement time.
	Burst float64
	// Action is the enforcement mechanism (shape by default).
	Action Action
}

// EffectiveBurst resolves the default burst sizing.
func (r *Rule) EffectiveBurst() float64 { return EffectiveBurst(r.Rate, r.Burst) }

// EffectiveBurst is the bucket capacity a rule with the given rate and
// configured burst enforces: the burst when set, else max(1, rate/10).
func EffectiveBurst(rate, burst float64) float64 {
	if burst > 0 {
		return burst
	}
	if rate <= 0 {
		return 1
	}
	b := rate / 10
	if b < 1 {
		b = 1
	}
	return b
}

// String renders the rule in DSL form.
func (r *Rule) String() string {
	rate := "rate:unlimited"
	if r.Rate >= 0 {
		rate = fmt.Sprintf("rate:%s", formatRate(r.Rate))
	}
	s := fmt.Sprintf("limit id:%s %s %s burst:%s", r.ID, r.Match.String(), rate,
		strconv.FormatFloat(r.EffectiveBurst(), 'g', -1, 64))
	if r.Action == ActionDrop {
		s += " action:drop"
	}
	return s
}

// RuleSet is an ordered set of rules with specificity-based selection.
//
// Alongside the specificity-ordered slice it maintains a per-operation
// dispatch index: for each posix.Op, the candidates (in selection order)
// among the rules whose op/class constraints that operation can satisfy.
// Select walks only those candidates and tests each only on what the
// index has not decided — job, user and path — so the common case, a
// handful of class-scoped rules, tests one or two matchers instead of
// scanning the whole set. The index is rebuilt on every Upsert/Remove
// (control-plane cold path).
//
// A RuleSet is not safe for concurrent mutation, but any number of
// goroutines may Select from one that nothing mutates: a data-plane
// stage classifies every request against a Clone it never mutates.
type RuleSet struct {
	rules []Rule
	// perOp[op] lists op's candidates, selection-ordered. Mutations
	// replace the slices, never write into them, so a Clone may share
	// them.
	perOp [posix.NumOps][]candidate
}

// candidate is one per-op index entry: the rule's position in rules,
// and whether the op alone decides the match (the rule has no job, user
// or path constraint), so Select need not look at the rule at all.
type candidate struct {
	pos     int
	decides bool
}

// NewRuleSet returns a set holding the given rules.
func NewRuleSet(rules ...Rule) *RuleSet {
	rs := &RuleSet{}
	for _, r := range rules {
		rs.Upsert(r)
	}
	return rs
}

// Upsert inserts the rule, replacing any rule with the same ID.
func (rs *RuleSet) Upsert(r Rule) {
	r.Match.compile()
	for i := range rs.rules {
		if rs.rules[i].ID == r.ID {
			rs.rules[i] = r
			rs.sortLocked()
			rs.reindex()
			return
		}
	}
	rs.rules = append(rs.rules, r)
	rs.sortLocked()
	rs.reindex()
}

// SetRate changes the rate of the rule with the given ID in place.
// Neither selection order nor the dispatch index depends on a rate, so
// nothing is rebuilt. An unknown ID is a no-op.
func (rs *RuleSet) SetRate(id string, rate float64) {
	for i := range rs.rules {
		if rs.rules[i].ID == id {
			rs.rules[i].Rate = rate
			return
		}
	}
}

// Retune is Upsert for a rule that differs from the installed rule of
// the same ID in at most rate and burst: it stores both in place and
// reports true. When no such rule is installed, or its matcher or action
// differ from r's, it changes nothing and reports false — the caller
// then needs Upsert.
func (rs *RuleSet) Retune(r Rule) bool {
	for i := range rs.rules {
		if cur := &rs.rules[i]; cur.ID == r.ID {
			if cur.Action != r.Action || !cur.Match.equal(&r.Match) {
				return false
			}
			cur.Rate, cur.Burst = r.Rate, r.Burst
			return true
		}
	}
	return false
}

// Remove deletes the rule with the given ID, reporting whether it existed.
func (rs *RuleSet) Remove(id string) bool {
	for i := range rs.rules {
		if rs.rules[i].ID == id {
			rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
			rs.reindex()
			return true
		}
	}
	return false
}

// reindex rebuilds the per-op dispatch index from the current rule order.
func (rs *RuleSet) reindex() {
	for op := range rs.perOp {
		var cands []candidate
		for i := range rs.rules {
			if m := &rs.rules[i].Match; m.couldMatchOp(posix.Op(op)) {
				cands = append(cands, candidate{pos: i, decides: m.opDecides()})
			}
		}
		rs.perOp[op] = cands
	}
}

// sortLocked orders rules by descending specificity (stable on ID for
// determinism).
func (rs *RuleSet) sortLocked() {
	sort.SliceStable(rs.rules, func(i, j int) bool {
		si, sj := rs.rules[i].Match.Specificity(), rs.rules[j].Match.Specificity()
		if si != sj {
			return si > sj
		}
		return rs.rules[i].ID < rs.rules[j].ID
	})
}

// Select returns the most specific rule matching the request, or nil.
func (rs *RuleSet) Select(req *posix.Request) *Rule {
	if i := rs.Index(req); i >= 0 {
		return &rs.rules[i]
	}
	return nil
}

// Index returns the position, in selection order (the order Rules
// reports), of the rule Select returns, or -1 when no rule matches. Ties
// in specificity go to the lower rule ID.
func (rs *RuleSet) Index(req *posix.Request) int {
	if req.Op.Valid() {
		for _, c := range rs.perOp[req.Op] {
			if c.decides || rs.rules[c.pos].Match.matchesRest(req) {
				return c.pos
			}
		}
		return -1
	}
	for i := range rs.rules {
		if rs.rules[i].Match.Matches(req) {
			return i
		}
	}
	return -1
}

// Clone returns a copy of the set that later mutations of rs leave
// untouched, and whose own mutations leave rs untouched.
func (rs *RuleSet) Clone() *RuleSet {
	return &RuleSet{rules: slices.Clone(rs.rules), perOp: rs.perOp}
}

// Rules returns the rules in selection order.
func (rs *RuleSet) Rules() []Rule {
	return append([]Rule(nil), rs.rules...)
}

// ---- rule DSL ----

// Parse parses one rule from DSL form:
//
//	limit id:open-cap job:job1 op:open rate:10k burst:500
//	limit id:meta class:metadata rate:75k
//	limit id:pass path:/tmp rate:unlimited
//
// Rates accept k/m suffixes (decimal thousands/millions).
func Parse(s string) (Rule, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) == 0 || fields[0] != "limit" {
		return Rule{}, fmt.Errorf("policy: rule must start with \"limit\": %q", s)
	}
	r := Rule{Rate: Unlimited}
	seenRate := false
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, ":")
		if !ok {
			if f == "all" {
				continue
			}
			return Rule{}, fmt.Errorf("policy: malformed token %q", f)
		}
		switch key {
		case "id":
			r.ID = val
		case "op":
			op, err := posix.ParseOp(val)
			if err != nil {
				return Rule{}, err
			}
			r.Match.Ops = append(r.Match.Ops, op)
		case "class":
			cl, err := posix.ParseClass(val)
			if err != nil {
				return Rule{}, err
			}
			r.Match.Classes = append(r.Match.Classes, cl)
		case "path":
			r.Match.PathPrefix = val
		case "job":
			r.Match.JobID = val
		case "user":
			r.Match.User = val
		case "rate":
			rate, err := parseRate(val)
			if err != nil {
				return Rule{}, err
			}
			r.Rate = rate
			seenRate = true
		case "burst":
			b, err := strconv.ParseFloat(val, 64)
			if err != nil || b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
				return Rule{}, fmt.Errorf("policy: bad burst %q", val)
			}
			r.Burst = b
		case "action":
			switch val {
			case "shape":
				r.Action = ActionShape
			case "drop":
				r.Action = ActionDrop
			default:
				return Rule{}, fmt.Errorf("policy: unknown action %q", val)
			}
		default:
			return Rule{}, fmt.Errorf("policy: unknown key %q", key)
		}
	}
	if r.ID == "" {
		return Rule{}, fmt.Errorf("policy: rule needs id: %q", s)
	}
	if !seenRate {
		return Rule{}, fmt.Errorf("policy: rule needs rate: %q", s)
	}
	return r, nil
}

// ParseAll parses a newline-separated rule list, skipping blank lines and
// '#' comments.
func ParseAll(text string) ([]Rule, error) {
	var rules []Rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRate(s string) (float64, error) {
	if s == "unlimited" || s == "inf" {
		return Unlimited, nil
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1e6, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	// ParseFloat accepts "NaN" and "Inf" spellings; both comparisons
	// below are false for NaN, so reject non-finite values explicitly —
	// a NaN rate would poison every token-bucket comparison downstream.
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v*mult, 0) {
		return 0, fmt.Errorf("policy: bad rate %q", s)
	}
	return v * mult, nil
}

func formatRate(v float64) string {
	switch {
	case v >= 1e6 && v == float64(int64(v/1e6))*1e6:
		return fmt.Sprintf("%gm", v/1e6)
	case v >= 1e3 && v == float64(int64(v/1e3))*1e3:
		return fmt.Sprintf("%gk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
