package rpcio

import (
	"bytes"
	"testing"

	"padll/internal/stage"
)

// fuzzArgsDst returns a fresh decode destination for a method's args
// (nil when the method takes none).
func fuzzArgsDst(m methodID) any {
	switch m {
	case methodRegistrarPing:
		return &HealthProbe{}
	case methodRegister:
		return &stage.Info{}
	case methodDeregister:
		return new(string)
	case methodBatch:
		return &BatchArgs{}
	default:
		return nil
	}
}

// fuzzReplyDst returns a fresh decode destination for a method's reply
// (nil when the reply is empty).
func fuzzReplyDst(m methodID) any {
	switch m {
	case methodRegistrarPing:
		return &HealthProbe{}
	case methodBatch:
		return &BatchReply{}
	default:
		return nil
	}
}

// FuzzWireDecode throws arbitrary bytes at every decoder surface a peer
// can reach: the frame header parser and each method's args and reply
// decoders. The invariants:
//
//  1. no input panics or over-reads (a slice overrun would panic);
//  2. malformed, truncated, or version-skewed input returns an error,
//     never a silently-wrong value;
//  3. any accepted payload is a fixpoint: re-encoding the decoded value
//     and decoding again reproduces byte-identical output, so decoder
//     and encoder agree on the schema for every reachable value.
func FuzzWireDecode(f *testing.F) {
	for _, fx := range callFixtures() {
		m := fx.method
		if fx.args != nil {
			buf, err := appendCallArgs(nil, m, fx.args)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(m), false, buf)
		}
		if fx.reply != nil {
			buf, err := appendCallReply(nil, m, fx.reply)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(m), true, buf)
		}
	}
	// Numbers this build retired (8 was the stage health probe until
	// wire v5, 10 and 11 the aggregator tier's until v4): what an old
	// peer would still send must be refused by number, whatever the
	// payload.
	for _, m := range []uint8{8, 10, 11} {
		f.Add(m, false, []byte{0})
		f.Add(m, true, []byte{0})
	}
	// A well-formed header seed so mutations explore the parser's arms.
	hdr := make([]byte, frameHeaderLen)
	putFrameHeader(hdr, frameHeader{kind: frameRequest, method: methodBatch, stream: 1, length: 0})
	f.Add(uint8(methodBatch), true, hdr)

	f.Fuzz(func(t *testing.T, mRaw uint8, isReply bool, data []byte) {
		// Surface 1: the frame header parser. Errors are expected for
		// malformed input; panics never are.
		if h, err := parseFrameHeader(data); err == nil {
			if h.length > maxFramePayload {
				t.Fatalf("parseFrameHeader accepted length %d over the %d limit", h.length, maxFramePayload)
			}
		}

		// Surface 2: the per-method payload decoders.
		m := methodID(mRaw)
		var dst any
		if isReply {
			dst = fuzzReplyDst(m)
		} else {
			dst = fuzzArgsDst(m)
		}
		if dst == nil {
			if serviceOf(m) == "" && (readCallArgs(m, data, nil) == nil || readCallReply(m, data, nil) == nil) {
				t.Fatalf("method %d belongs to no service, yet a decoder accepted it", m)
			}
			return
		}
		decode := func(payload []byte, v any) error {
			if isReply {
				return readCallReply(m, payload, v)
			}
			return readCallArgs(m, payload, v)
		}
		encode := func(v any) ([]byte, error) {
			if isReply {
				return appendCallReply(nil, m, v)
			}
			return appendCallArgs(nil, m, v)
		}
		if err := decode(data, dst); err != nil {
			return // rejected cleanly: exactly what malformed input should get
		}
		// Accepted: the decoded value must re-encode and re-decode to a
		// byte-identical fixpoint (values, not input bytes — varints have
		// non-canonical spellings the reader tolerates).
		b1, err := encode(dst)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		dst2 := fuzzArgsDst(m)
		if isReply {
			dst2 = fuzzReplyDst(m)
		}
		if err := decode(b1, dst2); err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v\npayload: %x", err, b1)
		}
		b2, err := encode(dst2)
		if err != nil {
			t.Fatalf("re-decoded value failed to re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode/decode not a fixpoint:\n b1: %x\n b2: %x", b1, b2)
		}
	})
}
