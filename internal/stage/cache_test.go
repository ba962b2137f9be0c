package stage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// Fixture pools for the randomized cache properties. Paths and prefixes
// deliberately collide: prefixes that name directories, prefixes that
// name entries directly inside another prefix (the SplitsDir hazard),
// trailing-slash forms, and paths that hit the exact-equality arm of
// the matcher.
var (
	cacheOps = []posix.Op{
		posix.OpOpen, posix.OpClose, posix.OpStat, posix.OpGetAttr,
		posix.OpMkdir, posix.OpReaddir, posix.OpRead, posix.OpWrite,
	}
	cachePrefixes = []string{
		"", "/a", "/a/", "/a/b", "/a/bb", "/a/b/c", "/scratch", "/scratch/job1",
	}
	// cacheSparsePrefixes makes most rules path-free, so that rule sets
	// mix ops whose candidates all ignore the path (memo keyed without
	// the directory) with ops where one path-bearing candidate brings the
	// directory back — and a mutation flips an op between the two.
	cacheSparsePrefixes = []string{"", "", "", "", "", "/a", "/a/b", "/scratch/job1"}
	cachePaths          = []string{
		"", "noslash", "/", "/a", "/a/", "/a/b", "/a/bb", "/a/x",
		"/a/b/c", "/a/b/cc", "/a/b/c/d", "/scratch/x", "/scratch/job1/f", "/x",
	}
	cacheJobs  = []string{"", "job1", "job2"}
	cacheUsers = []string{"", "alice", "bob"}
)

func randomRule(rng *rand.Rand, id int, prefixes []string) policy.Rule {
	r := policy.Rule{ID: fmt.Sprintf("r%d", id), Rate: policy.Unlimited}
	if rng.Intn(3) == 0 {
		r.Match.Ops = []posix.Op{cacheOps[rng.Intn(len(cacheOps))]}
	}
	if rng.Intn(3) == 0 {
		r.Match.Classes = []posix.Class{[]posix.Class{posix.ClassMetadata, posix.ClassData}[rng.Intn(2)]}
	}
	r.Match.PathPrefix = prefixes[rng.Intn(len(prefixes))]
	r.Match.JobID = cacheJobs[rng.Intn(len(cacheJobs))]
	r.Match.User = cacheUsers[rng.Intn(len(cacheUsers))]
	return r
}

func randomRequest(rng *rand.Rand, req *posix.Request) {
	req.Op = cacheOps[rng.Intn(len(cacheOps))]
	req.Path = cachePaths[rng.Intn(len(cachePaths))]
	req.JobID = cacheJobs[rng.Intn(len(cacheJobs))]
	req.User = cacheUsers[rng.Intn(len(cacheUsers))]
}

// TestClassifyCacheEquivalence is the cache's correctness property:
// for any snapshot, classifyCached must return exactly the entry
// classify returns — and classify must agree with the rule set's direct
// Select — on the first call (fill), the second call (hit), and after
// every control-plane mutation (fresh snapshot, fresh cache). Odd trials
// draw mostly path-free rules, so memo keys with and without the
// directory are both exercised, side by side and across mutations.
func TestClassifyCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var keyedByDir, keyedWithoutDir int // requests classified under each key shape
	for trial := 0; trial < 200; trial++ {
		prefixes := cachePrefixes
		if trial%2 == 1 {
			prefixes = cacheSparsePrefixes
		}
		s := New(Info{StageID: "cache"}, clock.NewSim(time.Unix(0, 0)))
		var rules []policy.Rule
		for i, n := 0, rng.Intn(6); i < n; i++ {
			rules = append(rules, randomRule(rng, i, prefixes))
			s.ApplyRule(rules[i])
		}
		ref := policy.NewRuleSet(rules...)
		req := new(posix.Request)
		for step := 0; step < 100; step++ {
			randomRequest(rng, req)
			sn := s.snap.Load()
			want := sn.classify(req)
			if len(sn.perOp[req.Op]) > 0 {
				if sn.pathFree[req.Op] {
					keyedWithoutDir++
				} else {
					keyedByDir++
				}
			}
			for pass := 0; pass < 2; pass++ { // fill, then hit
				if got := sn.classifyCached(req); got != want {
					t.Fatalf("trial %d step %d pass %d: classifyCached(%+v) = %v, classify = %v (rules %v)",
						trial, step, pass, req, got, want, rules)
				}
			}
			wantRule := ref.Select(req)
			switch {
			case want == nil && wantRule != nil:
				t.Fatalf("trial %d: classify missed rule %s for %+v", trial, wantRule.ID, req)
			case want != nil && (wantRule == nil || want.id != wantRule.ID):
				t.Fatalf("trial %d: classify chose %s, Select chose %v for %+v", trial, want.id, wantRule, req)
			}
			// Occasionally mutate mid-stream: the next snapshot must
			// not see stale memos.
			if step%25 == 24 && len(rules) > 0 {
				victim := rules[rng.Intn(len(rules))]
				if rng.Intn(2) == 0 {
					s.RemoveRule(victim.ID)
					ref.Remove(victim.ID)
				} else {
					victim.Match.PathPrefix = prefixes[rng.Intn(len(prefixes))]
					s.ApplyRule(victim)
					ref.Upsert(victim)
				}
			}
		}
	}
	if keyedByDir < 1000 || keyedWithoutDir < 1000 {
		t.Errorf("fixture lost its mix: %d requests keyed by directory, %d without", keyedByDir, keyedWithoutDir)
	}
}

// TestClassifyCachePathFreeOneSlot is what dropping the directory buys:
// under rules with no path constraint a sweep over 2,000 directories
// fills one memo slot, so after the first request Enforce neither
// allocates nor misses — where keys that carried the directory thrashed
// the 512 slots with one allocation per miss.
func TestClassifyCachePathFreeOneSlot(t *testing.T) {
	s := New(Info{StageID: "sweep", JobID: "job1"}, clock.NewSim(time.Unix(0, 0)))
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	paths := make([]string, 2000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/d%04d/f", i)
	}
	req := &posix.Request{Op: posix.OpGetAttr, Path: paths[0], JobID: "job1", User: "u1"}
	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(len(paths), func() {
		req.Path = paths[i%len(paths)]
		i++
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Enforce over %d distinct directories allocates %.3f allocs/op, want 0", len(paths), avg)
	}
	filled := 0
	sn := s.snap.Load()
	for i := range sn.cache {
		if sn.cache[i].Load() != nil {
			filled++
		}
	}
	if filled != 1 {
		t.Errorf("%d memo slots filled by one (op, job, user), want 1", filled)
	}
}

// TestClassifyCacheSplitsDirRefusal pins the soundness condition
// directly: a rule whose PathPrefix names an entry inside a directory
// must classify the sibling leaves of that directory differently, cache
// or no cache.
func TestClassifyCacheSplitsDirRefusal(t *testing.T) {
	s := New(Info{StageID: "split"}, clock.NewSim(time.Unix(0, 0)))
	s.ApplyRule(policy.Rule{ID: "leaf", Match: policy.Matcher{PathPrefix: "/a/b"}, Rate: policy.Unlimited})
	sn := s.snap.Load()
	hit := &posix.Request{Op: posix.OpGetAttr, Path: "/a/b"}
	miss := &posix.Request{Op: posix.OpGetAttr, Path: "/a/x"}
	for i := 0; i < 3; i++ { // repeated: a wrongly-cached miss would poison the hit
		if e := sn.classifyCached(miss); e != nil {
			t.Fatalf("iteration %d: /a/x classified as %s, want passthrough", i, e.id)
		}
		if e := sn.classifyCached(hit); e == nil || e.id != "leaf" {
			t.Fatalf("iteration %d: /a/b not matched by leaf rule (got %v)", i, e)
		}
	}
}

// TestClassifyCacheConcurrentChurn races cached classification against
// continuous ApplyRule/RemoveRule/SetMode churn. Each reader compares
// classifyCached against classify on one loaded snapshot — a property
// that holds regardless of which generation the load observed — so the
// test is meaningful under churn and the race detector sees the full
// lock-free surface: atomic snapshot publication, memo fills, memo hits.
func TestClassifyCacheConcurrentChurn(t *testing.T) {
	s := New(Info{StageID: "churn"}, clock.NewSim(time.Unix(0, 0)))
	stop := make(chan struct{})
	var mutator, readers sync.WaitGroup

	mutator.Add(1)
	go func() { // control-plane churn until the readers finish
		defer mutator.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0, 1:
				s.ApplyRule(randomRule(rng, rng.Intn(4), cacheSparsePrefixes))
			case 2:
				s.RemoveRule(fmt.Sprintf("r%d", rng.Intn(4)))
			case 3:
				s.SetMode(Mode(i % 2))
			}
		}
	}()

	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			req := new(posix.Request)
			for i := 0; i < 3000; i++ {
				randomRequest(rng, req)
				sn := s.snap.Load()
				want := sn.classify(req)
				if got := sn.classifyCached(req); got != want {
					select {
					case errs <- fmt.Errorf("classifyCached = %v, classify = %v for %+v", got, want, req):
					default:
					}
					return
				}
				// Exercise the full enforce path too (all rules are
				// Unlimited, so nothing blocks).
				if err := s.Enforce(req); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(int64(100 + g))
	}

	readers.Wait()
	close(stop)
	mutator.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
