package rpcio

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"padll/internal/policy"
	"padll/internal/stage"
)

// wireRegistry locks the field sets of every struct that crosses the
// control-plane wire, directly (Call args/replies) or transitively
// (types embedded in them). The codec moves fields positionally, so a
// rename is harmless but a retype, reorder, or removal desynchronizes
// peers; the fields recorded here must therefore never change within a
// WireVersion, and any appended field is a new version.
//
// Only exported fields are registered: the codec never moves unexported
// ones (see policy.Matcher.prefixSlash, a receiver-side cache).
var wireRegistry = map[string][]string{
	// rpcio.go: registration and health.
	"rpcio.Registration": {"Info stage.Info", "Addr string"},
	"rpcio.HealthProbe":  {"Seq uint64"},
	"rpcio.StageHealth": {
		"Seq uint64", "Info stage.Info", "Degraded bool",
		"DegradedSeconds float64", "Rules int",
	},

	// batch.go: batched delta protocol.
	"rpcio.StageOp": {
		"Kind rpcio.OpKind", "Rule policy.Rule", "ID string",
		"Rate float64", "Mode stage.Mode",
	},
	"rpcio.OpResult": {"Found bool"},
	"rpcio.BatchArgs": {
		"Ops []rpcio.StageOp", "Collect bool", "ClientID uint64",
		"AckEpoch uint64", "AckGen uint64",
	},
	"rpcio.BatchReply": {"Results []rpcio.OpResult", "Delta rpcio.StatsDelta"},
	"rpcio.StatsDelta": {
		"Epoch uint64", "Gen uint64", "Full bool", "Info stage.Info",
		"Queues []stage.QueueStats", "Removed []string",
		"Passthrough int64", "Degraded bool", "DegradedSeconds float64",
	},

	// Transitively encoded types from other packages.
	"stage.Info": {
		"StageID string", "JobID string", "Hostname string",
		"PID int", "User string",
	},
	"stage.Stats": {
		"Info stage.Info", "Queues []stage.QueueStats",
		"Passthrough int64", "Degraded bool", "DegradedSeconds float64",
	},
	"stage.QueueStats": {
		"RuleID string", "Limit float64", "Burst float64",
		"ThroughputRate float64", "DemandRate float64",
		"Total int64", "TotalDemand int64", "Dropped int64",
		"Waiting int", "WaitP50 float64", "WaitP95 float64", "WaitP99 float64",
	},
	"policy.Rule": {
		"ID string", "Match policy.Matcher", "Rate float64",
		"Burst float64", "Action policy.Action",
	},
	"policy.Matcher": {
		"Ops []posix.Op", "Classes []posix.Class", "PathPrefix string",
		"JobID string", "User string",
	},
}

// wireTypes instantiates one value of every registered type, in a fixed
// order matching wireRegistry's keys.
var wireTypes = []any{
	Registration{}, HealthProbe{}, StageHealth{},
	StageOp{}, OpResult{}, BatchArgs{}, BatchReply{}, StatsDelta{},
	stage.Info{}, stage.Stats{}, stage.QueueStats{},
	policy.Rule{}, policy.Matcher{},
}

// exportedFields renders a struct type's exported fields in declaration
// order as "Name Type" strings.
func exportedFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		out = append(out, f.Name+" "+f.Type.String())
	}
	return out
}

// TestWireRegistryIsAppendOnly enforces the wire compatibility contract:
// every field recorded in wireRegistry must still exist, at the same
// position, with the same name and type. Fields appended after the
// recorded set fail with a reminder to register them, so the registry
// stays complete; any change to a recorded field is flagged as a wire
// compatibility break.
func TestWireRegistryIsAppendOnly(t *testing.T) {
	seen := make(map[string]bool)
	for _, v := range wireTypes {
		rt := reflect.TypeOf(v)
		name := rt.String()
		seen[name] = true
		want, ok := wireRegistry[name]
		if !ok {
			t.Errorf("%s: instantiated in wireTypes but missing from wireRegistry", name)
			continue
		}
		got := exportedFields(rt)
		for i, w := range want {
			if i >= len(got) {
				t.Errorf("%s: registered field %q removed — this breaks wire compatibility with deployed peers", name, w)
				continue
			}
			if got[i] != w {
				t.Errorf("%s: field %d changed from %q to %q — the codec moves fields positionally, so retypes/reorders silently desynchronize peers; wire fields are append-only", name, i, w, got[i])
			}
		}
		for _, g := range got[min(len(want), len(got)):] {
			t.Errorf("%s: new wire field %q — append it to wireRegistry to lock it in", name, g)
		}
	}
	for name := range wireRegistry {
		if !seen[name] {
			t.Errorf("wireRegistry entry %s has no value in wireTypes", name)
		}
	}
}

// TestCodecCoversEveryWireStruct pins the binary codec's per-struct
// field coverage to the registry's locked field lists. Appending a
// field to a wire struct extends the registry (the append-only test
// demands it) but not the hand-written codec — this test is what makes
// that forgetting loud: the counts diverge and the failure says to
// extend the Encode/Decode pair and bump WireVersion together.
func TestCodecCoversEveryWireStruct(t *testing.T) {
	for name, fields := range wireRegistry {
		n, ok := codecFieldCoverage[name]
		if !ok {
			t.Errorf("%s: locked in wireRegistry but has no binary codec coverage entry — write its append/read pair in wirecodec.go and record it in codecFieldCoverage", name)
			continue
		}
		if n != len(fields) {
			t.Errorf("%s: registry locks %d fields but the binary codec covers %d — extend the codec's append/read pair, update codecFieldCoverage, and bump WireVersion (with a new wireSchemaFingerprints entry)", name, len(fields), n)
		}
	}
	for name := range codecFieldCoverage {
		if _, ok := wireRegistry[name]; !ok {
			t.Errorf("codecFieldCoverage entry %s is not locked by wireRegistry", name)
		}
	}
}

// wireSchemaFingerprint renders the whole locked schema — every
// registered type's ordered field list, types in sorted order — and
// hashes it. The result changes iff the wire schema changes.
func wireSchemaFingerprint() string {
	names := make([]string, 0, len(wireRegistry))
	for name := range wireRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		b.WriteString("{")
		b.WriteString(strings.Join(wireRegistry[name], "; "))
		b.WriteString("}\n")
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(b.String())))
}

// TestWireSchemaFingerprintMatchesVersion ties WireVersion to the
// schema it claims to describe: the fingerprint of the locked registry
// must be the one recorded for the current version. A schema change
// therefore forces two deliberate edits — the registry (append-only
// test) and the version/fingerprint pair — before the suite goes green.
func TestWireSchemaFingerprintMatchesVersion(t *testing.T) {
	want, ok := wireSchemaFingerprints[WireVersion]
	if !ok {
		t.Fatalf("WireVersion %d has no entry in wireSchemaFingerprints", WireVersion)
	}
	got := wireSchemaFingerprint()
	if got != want {
		t.Errorf("wire schema fingerprint mismatch:\n  recorded for v%d: %s\n  computed now:    %s\nif the schema deliberately changed, bump WireVersion and record the computed fingerprint", WireVersion, want, got)
	}
}

// TestWireRegistryCoversAnnotatedTypes cross-checks the registry against
// the //lint:wire annotations in this package's sources: every annotated
// struct must be locked by the registry, so the static analyzer and the
// runtime contract can't drift apart.
func TestWireRegistryCoversAnnotatedTypes(t *testing.T) {
	annotated := []string{
		"rpcio.Registration", "rpcio.HealthProbe", "rpcio.StageHealth", "rpcio.StageOp", "rpcio.OpResult",
		"rpcio.BatchArgs", "rpcio.BatchReply", "rpcio.StatsDelta",
	}
	for _, name := range annotated {
		if _, ok := wireRegistry[name]; !ok {
			t.Errorf("//lint:wire type %s is not locked by wireRegistry", name)
		}
	}
}
