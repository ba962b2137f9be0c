// The hand-rolled binary wire codec: the control plane's only wire.
//
// Every field of every wire struct is explicitly encoded and explicitly
// decoded, in declaration order, with no reflection and no optional
// fields, so a decoded struct never contains residue from a previous
// decode and a steady-state exchange allocates nothing.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic   0x4C4C4450 ("PDLL")
//	     4     1  version WireVersion
//	     5     1  kind    frameRequest | frameReply | frameError
//	     6     1  method  methodID
//	     7     8  stream  caller-chosen id routing the reply
//	    15     4  length  payload byte count (bounded by maxFramePayload)
//	    19     …  payload
//
// A listener serves one service, so the header names no service. The
// connection a stage registers on carries both: the stage's one request
// is its registration, and every request after it is the controller's,
// to the stage.
// Payload scalars use binary.{App,}endUvarint/Varint; a float64 travels
// as the uvarint of its byte-reversed IEEE-754 bits (appendF64), one
// byte for 0.0 and three to five for typical rates; strings and slices
// carry a uvarint count followed by their elements. Element counts are
// validated against the remaining payload before any allocation, so a
// hostile length prefix cannot force an over-read or an outsized
// allocation.
//
// Versioning: WireVersion covers the header layout and every struct
// schema below. Any schema change — a new field, a type change, a
// reordering — must bump WireVersion and register the new schema
// fingerprint in wireSchemaFingerprints (wire_registry_test.go computes
// the fingerprint and fails until both move together). Peers reject
// frames whose version byte differs from their own; there is no
// in-place negotiation — mixed fleets upgrade both sides together.
package rpcio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// wireMagic is the first four bytes of every frame: "PDLL" read as a
// little-endian uint32.
const wireMagic uint32 = 0x4C4C4450

// WireVersion is the binary codec's schema version. Bump it on any
// change to the frame header or to a wire struct's field set, together
// with wireSchemaFingerprints.
const WireVersion = 8

// wireSchemaFingerprints records the sha256 fingerprint of the full
// wire schema (every struct's ordered field list, as locked by
// wire_registry_test.go) at each WireVersion. The registry test
// recomputes the fingerprint and fails if the schema changed without a
// new version entry here.
var wireSchemaFingerprints = map[int]string{
	1: "sha256:201892b0bea5b6b7b65eb6fc63cfe170d216c310bd060ae6459ed5ecb531b237",
	// v2: aggregator tier (Agg.Attach, Agg.Round and their six structs).
	2: "sha256:379b1c97969b14109043ab048a227896457789d1e7ed75395796cfa5cd1c6081",
	// v3: per-call stage methods and their four args structs removed;
	// registration moved onto the frame codec (no new structs).
	3: "sha256:e229beb791c43c21eb2abb355f4d1afa6f53c236c5565c431b543cc088efd1c0",
	// v4: aggregator tier removed (Agg.Attach, Agg.Round and their six
	// structs); methods 10-11 reserved.
	4: "sha256:f6b05f86b06d37fa044c365100e0515e8b3d27822615df446f0cc1d613172370",
	// v5: the stage health probe and its reply struct removed; method 8
	// reserved.
	5: "sha256:aa1d1b0ce60fc044a0101aed39d6bb2554f1e6c5f7f280866cb294953b820e33",
	// v6: the health probe names its stage and the reply says whether
	// the controller holds that stage's registration.
	6: "sha256:13687e5311e156981af9145de90d8a95510e68410704a4de9a4f8fe46821f4e8",
	// v7: the stage keeps one delta baseline, so a batch names no
	// collecting client; the header's two reserved fields are gone (24 ->
	// 19 bytes); and stage.Stats, which no message carries, is no longer
	// registered.
	7: "sha256:69a3990acfd7d9c67e5c617a57dcda9559ed7dd4ebea3de8023a1fac33fd7937",
	// v8: a registration carries the stage's identity alone (its
	// Registration wrapper and the Addr the controller dialed back are
	// gone), and the controller runs its rounds over the connection the
	// stage registered on.
	8: "sha256:9c9023e557db5192c0506cd99e7a82c1c0bf79781f2803153dade9333dff9bd4",
}

// Frame kinds.
const (
	frameRequest uint8 = 1
	frameReply   uint8 = 2
	// frameError carries a service-side application error as a string
	// payload: the wire worked and the peer answered, so transports do
	// not retry it.
	frameError uint8 = 3
)

// methodID numbers the control-service methods on the wire.
type methodID uint8

const (
	// 1 was the stage mux's attach handshake, retired within wire v5
	// (no header or struct schema changed): every listener serves one
	// service, and a peer still attaching is answered "unknown method 1".
	_ methodID = iota + 1
	// 2-7 were the per-call stage methods (ApplyRule, RemoveRule,
	// SetRate, Collect, SetMode, Ping), retired in wire v3: a single
	// operation is a one-op Stage.Batch. The numbers stay reserved so
	// the surviving methods keep their byte values.
	_
	_
	_
	_
	_
	_
	// 8 was the stage health probe, retired in wire v5: a fresh
	// handle's first collect is a full snapshot and carries the stage's
	// identity.
	_
	methodBatch
	// 10-11 were the aggregator tier's methods (Agg.Attach, Agg.Round),
	// retired in wire v4 and reserved likewise.
	_
	_
	// Registrar methods, served by the control plane's registration
	// endpoint (ServeRegistrar).
	methodRegister
	methodDeregister
	methodRegistrarPing
)

// methodNames names the live methods, as errors show them.
var methodNames = [...]string{methodBatch: "Stage.Batch", methodRegister: "Registrar.Register",
	methodDeregister: "Registrar.Deregister", methodRegistrarPing: "Registrar.Ping"}

func (m methodID) String() string {
	if int(m) < len(methodNames) && methodNames[m] != "" {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

const (
	frameHeaderLen = 19
	// maxFramePayload bounds a frame's payload. The largest legitimate
	// payload is a full-snapshot BatchReply for a stage with an extreme
	// rule count; 16 MiB is orders of magnitude above that while keeping
	// a corrupt or hostile length prefix from provoking a giant read.
	maxFramePayload = 16 << 20
)

// frameHeader is the decoded fixed-width header.
type frameHeader struct {
	kind   uint8
	method methodID
	stream uint64
	length uint32
}

// putFrameHeader writes h into b[:frameHeaderLen].
func putFrameHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], wireMagic)
	b[4] = WireVersion
	b[5] = h.kind
	b[6] = uint8(h.method)
	binary.LittleEndian.PutUint64(b[7:], h.stream)
	binary.LittleEndian.PutUint32(b[15:], h.length)
}

// parseFrameHeader validates and decodes a frame header. A non-nil
// error means the connection's framing is unusable (wrong protocol,
// version skew, or an insane length) and the connection must die; it is
// never a per-call error.
func parseFrameHeader(b []byte) (frameHeader, error) {
	if len(b) < frameHeaderLen {
		return frameHeader{}, fmt.Errorf("rpcio: frame header truncated: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != wireMagic {
		return frameHeader{}, fmt.Errorf("rpcio: bad frame magic %#08x", m)
	}
	if v := b[4]; v != WireVersion {
		return frameHeader{}, fmt.Errorf("rpcio: wire version skew: peer speaks v%d, this side v%d", v, WireVersion)
	}
	h := frameHeader{
		kind:   b[5],
		method: methodID(b[6]),
		stream: binary.LittleEndian.Uint64(b[7:]),
		length: binary.LittleEndian.Uint32(b[15:]),
	}
	if h.length > maxFramePayload {
		return frameHeader{}, fmt.Errorf("rpcio: frame payload %d exceeds limit %d", h.length, maxFramePayload)
	}
	return h, nil
}

// ---- encode primitives (append-style, reusable caller buffers) ----

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendF64 encodes a float64 as the uvarint of its byte-reversed IEEE
// bits. Reversal moves the sign/exponent byte — and the high mantissa
// bytes that round-ish numbers actually use — into the low varint
// groups, so 0.0 is one byte and typical rates (15000.0, 2.5) are
// three to five instead of a fixed eight. Lossless and explicit: every
// bit pattern (including NaNs) round-trips exactly; nothing is elided.
func appendF64(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ---- decode primitives ----

// wireReader decodes one payload with a sticky error: the first
// malformed field poisons the reader and every later read returns zero
// values, so decoders need no per-field error plumbing and can never
// act on partially valid data.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("rpcio: decode: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

func (r *wireReader) boolv() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("invalid bool byte %#02x at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

func (r *wireReader) str() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return ""
	}
	if n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// strSame decodes a string like str, but returns prev — skipping the
// allocation — when the wire bytes equal it. Decode targets are reused
// across frames, so identifier fields (rule IDs) carry
// the same value round after round; comparing against the slot's
// previous value makes the steady state allocation-free.
func (r *wireReader) strSame(prev string) string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return ""
	}
	if n == 0 {
		return ""
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	if string(b) == prev { // compiler-optimized: no conversion allocation
		return prev
	}
	return string(b)
}

// count reads a slice element count and validates it against the
// remaining payload: every element encodes to at least minElem bytes,
// so a count that could not possibly fit is rejected before the caller
// allocates anything.
func (r *wireReader) count(minElem int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if n > uint64((len(r.buf)-r.off)/minElem) {
		r.fail("element count %d cannot fit in remaining %d bytes", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// done reports the reader's sticky error, additionally failing if the
// payload was not fully consumed — trailing garbage means the two sides
// disagree on the schema.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("rpcio: decode: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

// Minimum encoded sizes, used to bound slice counts before allocation.
const (
	minStrEnc        = 1  // empty string: 1 count byte
	minVarintEnc     = 1  // zero: 1 byte
	minQueueStatsEnc = 12 // 1 string + 7 varint float64 + 4 varints
	minStageOpEnc    = 13 // kind + minimal rule (9) + id + rate + mode
	minOpResultEnc   = 1  // bool
)

// ---- per-struct codecs ----
//
// Encoders append to the caller's buffer and return it; decoders
// overwrite every field of the destination, reusing slice capacity.
// Field order is declaration order, locked by wire_registry_test.go,
// whose round trip fails for any exported field a pair forgets.

func appendInfo(b []byte, v *stage.Info) []byte {
	b = appendString(b, v.StageID)
	b = appendString(b, v.JobID)
	b = appendString(b, v.Hostname)
	b = binary.AppendVarint(b, int64(v.PID))
	b = appendString(b, v.User)
	return b
}

func readInfo(r *wireReader, v *stage.Info) {
	v.StageID = r.str()
	v.JobID = r.str()
	v.Hostname = r.str()
	v.PID = int(r.varint())
	v.User = r.str()
}

func appendQueueStats(b []byte, v *stage.QueueStats) []byte {
	b = appendString(b, v.RuleID)
	b = appendF64(b, v.Limit)
	b = appendF64(b, v.Burst)
	b = appendF64(b, v.ThroughputRate)
	b = appendF64(b, v.DemandRate)
	b = binary.AppendVarint(b, v.Total)
	b = binary.AppendVarint(b, v.TotalDemand)
	b = binary.AppendVarint(b, v.Dropped)
	b = binary.AppendVarint(b, int64(v.Waiting))
	b = appendF64(b, v.WaitP50)
	b = appendF64(b, v.WaitP95)
	b = appendF64(b, v.WaitP99)
	return b
}

func readQueueStats(r *wireReader, v *stage.QueueStats) {
	v.RuleID = r.strSame(v.RuleID)
	v.Limit = r.f64()
	v.Burst = r.f64()
	v.ThroughputRate = r.f64()
	v.DemandRate = r.f64()
	v.Total = r.varint()
	v.TotalDemand = r.varint()
	v.Dropped = r.varint()
	v.Waiting = int(r.varint())
	v.WaitP50 = r.f64()
	v.WaitP95 = r.f64()
	v.WaitP99 = r.f64()
}

func appendQueueStatsSlice(b []byte, qs []stage.QueueStats) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for i := range qs {
		b = appendQueueStats(b, &qs[i])
	}
	return b
}

func readQueueStatsSlice(r *wireReader, dst []stage.QueueStats) []stage.QueueStats {
	n := r.count(minQueueStatsEnc)
	// Decode in place: a slot kept within capacity still holds last
	// frame's row, letting strSame reuse its RuleID.
	dst = dst[:0]
	for i := 0; i < n && r.err == nil; i++ {
		if i < cap(dst) {
			dst = dst[:i+1]
		} else {
			dst = append(dst, stage.QueueStats{})
		}
		readQueueStats(r, &dst[i])
	}
	return dst
}

func appendMatcher(b []byte, v *policy.Matcher) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Ops)))
	for _, op := range v.Ops {
		b = binary.AppendVarint(b, int64(op))
	}
	b = binary.AppendUvarint(b, uint64(len(v.Classes)))
	for _, cl := range v.Classes {
		b = binary.AppendVarint(b, int64(cl))
	}
	b = appendString(b, v.PathPrefix)
	b = appendString(b, v.JobID)
	b = appendString(b, v.User)
	return b
}

func readMatcher(r *wireReader, v *policy.Matcher) {
	// The codec only moves exported fields; the receiver's matcher
	// recomputes its unexported prefix cache on first use.
	nOps := r.count(minVarintEnc)
	v.Ops = v.Ops[:0]
	for i := 0; i < nOps && r.err == nil; i++ {
		v.Ops = append(v.Ops, posix.Op(r.varint()))
	}
	nCls := r.count(minVarintEnc)
	v.Classes = v.Classes[:0]
	for i := 0; i < nCls && r.err == nil; i++ {
		v.Classes = append(v.Classes, posix.Class(r.varint()))
	}
	v.PathPrefix = r.str()
	v.JobID = r.str()
	v.User = r.str()
}

func appendRule(b []byte, v *policy.Rule) []byte {
	b = appendString(b, v.ID)
	b = appendMatcher(b, &v.Match)
	b = appendF64(b, v.Rate)
	b = appendF64(b, v.Burst)
	b = binary.AppendVarint(b, int64(v.Action))
	return b
}

func readRule(r *wireReader, v *policy.Rule) {
	v.ID = r.str()
	readMatcher(r, &v.Match)
	v.Rate = r.f64()
	v.Burst = r.f64()
	v.Action = policy.Action(r.varint())
}

func appendHealthProbe(b []byte, v *HealthProbe) []byte {
	b = binary.AppendUvarint(b, v.Seq)
	b = appendString(b, v.StageID)
	return appendBool(b, v.Registered)
}

func readHealthProbe(r *wireReader, v *HealthProbe) {
	v.Seq = r.uvarint()
	v.StageID = r.strSame(v.StageID)
	v.Registered = r.boolv()
}

func appendStageOp(b []byte, v *StageOp) []byte {
	b = binary.AppendUvarint(b, uint64(v.Kind))
	b = appendRule(b, &v.Rule)
	b = appendString(b, v.ID)
	b = appendF64(b, v.Rate)
	b = binary.AppendVarint(b, int64(v.Mode))
	return b
}

func readStageOp(r *wireReader, v *StageOp) {
	v.Kind = OpKind(r.uvarint())
	readRule(r, &v.Rule)
	v.ID = r.strSame(v.ID)
	v.Rate = r.f64()
	v.Mode = stage.Mode(r.varint())
}

func appendOpResult(b []byte, v *OpResult) []byte {
	return appendBool(b, v.Found)
}

func readOpResult(r *wireReader, v *OpResult) {
	v.Found = r.boolv()
}

func appendBatchArgs(b []byte, v *BatchArgs) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Ops)))
	for i := range v.Ops {
		b = appendStageOp(b, &v.Ops[i])
	}
	b = appendBool(b, v.Collect)
	b = binary.AppendUvarint(b, v.AckEpoch)
	b = binary.AppendUvarint(b, v.AckGen)
	return b
}

func readBatchArgs(r *wireReader, v *BatchArgs) {
	n := r.count(minStageOpEnc)
	ops := v.Ops[:0]
	for i := 0; i < n && r.err == nil; i++ {
		// Only the slot's previous ID carries over for strSame to reuse:
		// the stage keeps an applied rule's matcher slices, so a rule is
		// never decoded over the last frame's.
		var op StageOp
		if i < cap(ops) {
			op.ID = ops[:i+1][i].ID
		}
		readStageOp(r, &op)
		ops = append(ops, op)
	}
	v.Ops = ops
	v.Collect = r.boolv()
	v.AckEpoch = r.uvarint()
	v.AckGen = r.uvarint()
}

func appendStatsDelta(b []byte, v *StatsDelta) []byte {
	b = binary.AppendUvarint(b, v.Epoch)
	b = binary.AppendUvarint(b, v.Gen)
	b = appendBool(b, v.Full)
	b = appendInfo(b, &v.Info)
	b = appendQueueStatsSlice(b, v.Queues)
	b = binary.AppendUvarint(b, uint64(len(v.Removed)))
	for _, id := range v.Removed {
		b = appendString(b, id)
	}
	b = binary.AppendVarint(b, v.Passthrough)
	b = appendBool(b, v.Degraded)
	b = appendF64(b, v.DegradedSeconds)
	return b
}

func readStatsDelta(r *wireReader, v *StatsDelta) {
	v.Epoch = r.uvarint()
	v.Gen = r.uvarint()
	v.Full = r.boolv()
	readInfo(r, &v.Info)
	v.Queues = readQueueStatsSlice(r, v.Queues)
	n := r.count(minStrEnc)
	v.Removed = v.Removed[:0]
	for i := 0; i < n && r.err == nil; i++ {
		v.Removed = append(v.Removed, r.str())
	}
	v.Passthrough = r.varint()
	v.Degraded = r.boolv()
	v.DegradedSeconds = r.f64()
}

func appendBatchReply(b []byte, v *BatchReply) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Results)))
	for i := range v.Results {
		b = appendOpResult(b, &v.Results[i])
	}
	b = appendStatsDelta(b, &v.Delta)
	return b
}

func readBatchReply(r *wireReader, v *BatchReply) {
	n := r.count(minOpResultEnc)
	v.Results = v.Results[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var res OpResult
		readOpResult(r, &res)
		v.Results = append(v.Results, res)
	}
	readStatsDelta(r, &v.Delta)
}

// ---- method dispatch ----

// appendCallArgs encodes one method's args. The any values are the same
// pointer forms frameTransport.Start receives.
func appendCallArgs(b []byte, m methodID, args any) ([]byte, error) {
	switch m {
	case methodRegistrarPing:
		return appendHealthProbe(b, args.(*HealthProbe)), nil
	case methodBatch:
		return appendBatchArgs(b, args.(*BatchArgs)), nil
	case methodRegister:
		return appendInfo(b, args.(*stage.Info)), nil // the registering stage
	case methodDeregister:
		return appendString(b, *args.(*string)), nil // the stage ID
	default:
		return b, fmt.Errorf("rpcio: encode: unknown method %d", m)
	}
}

// readCallArgs decodes one method's args payload into the pointed-to
// struct, fully overwriting it (slice capacity is reused).
func readCallArgs(m methodID, payload []byte, args any) error {
	r := wireReader{buf: payload}
	switch m {
	case methodRegistrarPing:
		readHealthProbe(&r, args.(*HealthProbe))
	case methodBatch:
		readBatchArgs(&r, args.(*BatchArgs))
	case methodRegister:
		readInfo(&r, args.(*stage.Info))
	case methodDeregister:
		*args.(*string) = r.str()
	default:
		return fmt.Errorf("rpcio: decode: unknown method %d", m)
	}
	return r.done()
}

// appendCallReply encodes one method's reply.
func appendCallReply(b []byte, m methodID, reply any) ([]byte, error) {
	switch m {
	case methodRegister, methodDeregister:
		return b, nil // empty reply
	case methodRegistrarPing:
		return appendHealthProbe(b, reply.(*HealthProbe)), nil
	case methodBatch:
		return appendBatchReply(b, reply.(*BatchReply)), nil
	default:
		return b, fmt.Errorf("rpcio: encode: unknown method %d", m)
	}
}

// readCallReply decodes one method's reply payload into the pointed-to
// value, fully overwriting it.
func readCallReply(m methodID, payload []byte, reply any) error {
	r := wireReader{buf: payload}
	switch m {
	case methodRegister, methodDeregister:
		// empty reply
	case methodRegistrarPing:
		readHealthProbe(&r, reply.(*HealthProbe))
	case methodBatch:
		readBatchReply(&r, reply.(*BatchReply))
	default:
		return fmt.Errorf("rpcio: decode: unknown method %d", m)
	}
	return r.done()
}

// RemoteError is a service-side application error carried back over a
// frame connection: the wire worked, the stage answered, and the answer
// was "no". Transports return it to the caller and never retry it.
type RemoteError string

// Error implements error.
func (e RemoteError) Error() string { return string(e) }
