package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"padll/internal/posix"
)

// Fixture pools for the randomized selection properties. Paths and
// prefixes deliberately collide: prefixes that name directories,
// prefixes that name an entry directly inside another prefix ("/a/b"
// inside "/a", "/a/b/c" inside "/a/b"), trailing-slash forms, and paths
// equal to a prefix, which only Matches' exact-equality arm accepts.
var (
	propOps = []posix.Op{
		posix.OpOpen, posix.OpClose, posix.OpStat, posix.OpGetAttr,
		posix.OpMkdir, posix.OpReaddir, posix.OpRead, posix.OpWrite,
	}
	propPrefixes = []string{
		"", "/a", "/a/", "/a/b", "/a/bb", "/a/b/c", "/scratch", "/scratch/job1",
	}
	// propSparsePrefixes makes most rules path-free, so that an op's
	// candidates mix rules the index alone decides with rules Select must
	// still test, and a mutation flips an op between the two.
	propSparsePrefixes = []string{"", "", "", "", "", "/a", "/a/b", "/scratch/job1"}
	propPaths          = []string{
		"", "noslash", "/", "/a", "/a/", "/a/b", "/a/bb", "/a/x",
		"/a/b/c", "/a/b/cc", "/a/b/c/d", "/scratch/x", "/scratch/job1/f", "/x",
	}
	propJobs  = []string{"", "job1", "job2"}
	propUsers = []string{"", "alice", "bob"}
)

func randomRule(rng *rand.Rand, id int, prefixes []string) Rule {
	r := Rule{ID: fmt.Sprintf("r%d", id), Rate: Unlimited}
	if rng.Intn(3) == 0 {
		r.Match.Ops = []posix.Op{propOps[rng.Intn(len(propOps))]}
	}
	if rng.Intn(3) == 0 {
		r.Match.Classes = []posix.Class{[]posix.Class{posix.ClassMetadata, posix.ClassData}[rng.Intn(2)]}
	}
	r.Match.PathPrefix = prefixes[rng.Intn(len(prefixes))]
	r.Match.JobID = propJobs[rng.Intn(len(propJobs))]
	r.Match.User = propUsers[rng.Intn(len(propUsers))]
	return r
}

func randomRequest(rng *rand.Rand, req *posix.Request) {
	req.Op = propOps[rng.Intn(len(propOps))]
	req.Path = propPaths[rng.Intn(len(propPaths))]
	req.JobID = propJobs[rng.Intn(len(propJobs))]
	req.User = propUsers[rng.Intn(len(propUsers))]
}

// selectAgrees reports, for a request Select and selectReference
// classify differently, what each chose.
func selectAgrees(rs *RuleSet, req *posix.Request) error {
	got, want := rs.Select(req), selectReference(rs, req)
	if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
		return fmt.Errorf("Select(%+v) = %v, reference = %v", *req, got, want)
	}
	if i := rs.Index(req); got != nil && rs.Rules()[i].ID != got.ID || got == nil && i != -1 {
		return fmt.Errorf("Index(%+v) = %d disagrees with Select = %v", *req, i, got)
	}
	return nil
}

// TestSelectMatchesReferenceProperty is selection's correctness
// property: over 40 seeds of up to six colliding rules, Select — the
// per-op index with its skip of candidates the op alone decides — picks
// the rule the definition picks, for every request, and keeps doing so
// as Upsert and Remove re-index the set. Odd seeds draw mostly path-free
// rules, so decided and tested candidates sit side by side.
func TestSelectMatchesReferenceProperty(t *testing.T) {
	var decided, tested int // index candidates of each kind the requests met
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prefixes := propPrefixes
		if seed%2 == 1 {
			prefixes = propSparsePrefixes
		}
		var rules []Rule
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			rules = append(rules, randomRule(rng, i, prefixes))
		}
		rs := NewRuleSet(rules...)
		req := new(posix.Request)
		for step := 0; step < 200; step++ {
			randomRequest(rng, req)
			for _, c := range rs.perOp[req.Op] {
				if c.decides {
					decided++
				} else {
					tested++
				}
			}
			if err := selectAgrees(rs, req); err != nil {
				t.Fatalf("seed %d step %d: %v (rules %v)", seed, step, err, rs.Rules())
			}
			if step%25 == 24 {
				victim := rules[rng.Intn(len(rules))]
				if rng.Intn(3) == 0 {
					rs.Remove(victim.ID)
				} else {
					victim.Match.PathPrefix = prefixes[rng.Intn(len(prefixes))]
					rs.Upsert(victim)
				}
			}
		}
	}
	if decided < 1000 || tested < 1000 {
		t.Errorf("fixture lost its mix: %d decided and %d tested index candidates", decided, tested)
	}
}

// TestSelectConcurrentReadersOfFrozenClone is the data plane's use of a
// rule set: goroutines select from one Clone that nothing mutates, while
// the set it was cloned from goes on changing. Under -race it proves
// that Clone shares nothing a later mutation writes; every reader's
// answers must equal the reference on the clone.
func TestSelectConcurrentReadersOfFrozenClone(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		master := NewRuleSet()
		for i := 0; i < 6; i++ {
			master.Upsert(randomRule(rng, i, propSparsePrefixes))
		}
		frozen := master.Clone()

		var wg sync.WaitGroup
		errs := make(chan error, 5)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				req := new(posix.Request)
				for i := 0; i < 300; i++ {
					randomRequest(rng, req)
					if err := selectAgrees(frozen, req); err != nil {
						errs <- err
						return
					}
				}
			}(rand.New(rand.NewSource(seed*10 + int64(g))))
		}
		wg.Add(1)
		go func() { // the master keeps mutating under the readers
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					master.Remove(fmt.Sprintf("r%d", rng.Intn(6)))
				case 1:
					master.SetRate(fmt.Sprintf("r%d", rng.Intn(6)), float64(i))
				default:
					master.Upsert(randomRule(rng, rng.Intn(8), propPrefixes))
				}
			}
		}()
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
