package rpcio

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wireRegistry locks the field sets of every struct that crosses the
// control-plane wire, directly (call args/replies) or transitively
// (types embedded in them). With the structs themselves and their codec
// it is the schema's only statement. The codec moves fields
// positionally, so a rename is harmless but a retype, reorder, or
// removal desynchronizes peers; the fields recorded here must therefore
// never change within a WireVersion, and any appended field is a new
// version.
//
// Only exported fields are registered: the codec never moves unexported
// ones (wireUnexported lists the few a wire struct may keep).
var wireRegistry = map[string][]string{
	// rpcio.go: registration and the registrar's ping.
	"rpcio.Registration": {"Info stage.Info", "Addr string"},
	"rpcio.HealthProbe":  {"Seq uint64"},

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

// wireUnexported lists, per registered type, the unexported fields the
// codec deliberately leaves behind: receiver-side state rebuilt after a
// decode. Any other unexported field would vanish in transit unnoticed.
var wireUnexported = map[string][]string{
	"policy.Matcher": {"prefixSlash string"},
}

// wireType is one registered struct with its codec pair. codecOf infers
// the type from the pair's signatures, so the two cannot disagree.
type wireType struct {
	typ reflect.Type
	enc func(b []byte, v any) []byte
	dec func(r *wireReader, v any)
}

func codecOf[T any](enc func([]byte, *T) []byte, dec func(*wireReader, *T)) wireType {
	return wireType{
		typ: reflect.TypeFor[T](),
		enc: func(b []byte, v any) []byte { return enc(b, v.(*T)) },
		dec: func(r *wireReader, v any) { dec(r, v.(*T)) },
	}
}

// wireTypes pairs every registered type with its append/read functions,
// in wireRegistry's order.
var wireTypes = []wireType{
	codecOf(appendRegistration, readRegistration),
	codecOf(appendHealthProbe, readHealthProbe),
	codecOf(appendStageOp, readStageOp),
	codecOf(appendOpResult, readOpResult),
	codecOf(appendBatchArgs, readBatchArgs),
	codecOf(appendBatchReply, readBatchReply),
	codecOf(appendStatsDelta, readStatsDelta),
	codecOf(appendInfo, readInfo),
	codecOf(appendStats, readStats),
	codecOf(appendQueueStats, readQueueStats),
	codecOf(appendRule, readRule),
	codecOf(appendMatcher, readMatcher),
}

// structFields renders a struct type's exported (or unexported) fields
// in declaration order as "Name Type" strings.
func structFields(t reflect.Type, exported bool) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() == exported {
			out = append(out, f.Name+" "+f.Type.String())
		}
	}
	return out
}

// TestWireRegistryIsAppendOnly enforces the wire compatibility contract:
// every field recorded in wireRegistry must still exist, at the same
// position, with the same name and type. Fields appended after the
// recorded set fail with a reminder to register them, so the registry
// stays complete; any change to a recorded field is flagged as a wire
// compatibility break. A registered type's unexported fields must be
// exactly those wireUnexported lists, and every struct it carries must
// itself be registered, so the lock closes over the whole schema.
func TestWireRegistryIsAppendOnly(t *testing.T) {
	seen := make(map[string]bool)
	for _, wt := range wireTypes {
		rt := wt.typ
		name := rt.String()
		seen[name] = true
		want, ok := wireRegistry[name]
		if !ok {
			t.Errorf("%s: has a codec pair in wireTypes but is missing from wireRegistry", name)
			continue
		}
		got := structFields(rt, true)
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
		if got, want := structFields(rt, false), wireUnexported[name]; !slices.Equal(got, want) {
			t.Errorf("%s: unexported fields %q, want %q — the codec only moves exported fields; export what the peer needs, or list receiver-side state in wireUnexported", name, got, want)
		}
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if f.IsExported() && ft.Kind() == reflect.Struct && wireRegistry[ft.String()] == nil {
				t.Errorf("%s: field %s carries %s, which wireRegistry does not lock", name, f.Name, ft)
			}
		}
	}
	for name := range wireRegistry {
		if !seen[name] {
			t.Errorf("wireRegistry entry %s has no codec pair in wireTypes", name)
		}
	}
}

// wireFiller writes a distinct value into every exported field of a wire
// value, recursively. Leaf n of the walk gets a value derived from n, so
// no two fields share one and a codec that swaps two same-typed fields
// fails as surely as one that drops a field.
type wireFiller struct {
	next  int  // the next leaf's seed
	bools bool // what every bool leaf gets
	elems int  // length of every slice
}

// fill fills v, or names the first field it cannot fill: an interface,
// chan, func, map or pointer, none of which the codec carries either.
func (f *wireFiller) fill(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(f.bools)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("f%d", f.next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), f.elems, f.elems))
		for i := 0; i < f.elems; i++ {
			if err := f.fill(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if field := v.Type().Field(i); field.IsExported() {
				if err := f.fill(v.Field(i)); err != nil {
					return fmt.Errorf(".%s%w", field.Name, err)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf(" is a %s, which the codec cannot carry", v.Type())
	}
	f.next++
	return nil
}

// TestWireCodecRoundTripsEveryField proves each registered type's codec
// by behaviour: a value with every exported field filled (slices two
// long, bools true, every other leaf distinct and non-zero) goes out
// through the type's append function and back through its read function
// into a destination dirty with other values (three-long slices, false
// bools), and every exported field must come back equal. A field the
// pair forgets keeps its dirty value; a field the filler cannot fill
// fails before anything is encoded.
func TestWireCodecRoundTripsEveryField(t *testing.T) {
	for _, wt := range wireTypes {
		name := wt.typ.String()
		src, dst := reflect.New(wt.typ), reflect.New(wt.typ)
		if err := (&wireFiller{next: 1, bools: true, elems: 2}).fill(src.Elem()); err != nil {
			t.Errorf("%s%v", name, err)
			continue
		}
		if err := (&wireFiller{next: 100, elems: 3}).fill(dst.Elem()); err != nil {
			t.Fatalf("%s%v", name, err)
		}
		r := wireReader{buf: wt.enc(nil, src.Interface())}
		wt.dec(&r, dst.Interface())
		if err := r.done(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for i := 0; i < wt.typ.NumField(); i++ {
			if !wt.typ.Field(i).IsExported() {
				continue
			}
			sent, got := src.Elem().Field(i).Interface(), dst.Elem().Field(i).Interface()
			if !reflect.DeepEqual(sent, got) {
				t.Errorf("%s.%s did not survive its codec:\n sent: %+v\n  got: %+v", name, wt.typ.Field(i).Name, sent, got)
			}
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
