package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"partix/internal/obs"
)

// fuzzMaxMessage is the per-message limit the fuzz target decodes under;
// small, so an allocation that follows a declared length instead of the
// limit stands out.
const fuzzMaxMessage = 1 << 16

// FuzzFrameDecode feeds arbitrary bytes to the one frame decoder a client
// runs — gob behind limitReader — as a stream of Frame messages. Whatever
// the bytes, decoding must not panic, must not hand back a frame larger
// than the message limit, and must not allocate in proportion to a length
// the peer merely declared. The seed corpus (testdata/fuzz/FuzzFrameDecode)
// holds an empty end frame, an items frame followed by an end frame whose
// payload carries the final batch and a span trailer, a FrameErr, a fetch
// frame of three documents followed by its end frame, a truncated length
// header and an oversize declared length. What a client then does with a
// frame's payload is FuzzFramePayload's (query frames) and
// FuzzFetchFrame's (fetch frames).
func FuzzFrameDecode(f *testing.F) {
	// One decoded element costs at most this many bytes of memory per byte
	// of message, before slice growth; anything past it follows a declared
	// length, not the data.
	perByte := uint64(max(unsafe.Sizeof([]byte(nil)), unsafe.Sizeof(obs.Span{})))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := gob.NewDecoder(newLimitReader(bytes.NewReader(data), fuzzMaxMessage))
		for {
			var fr Frame
			if err := dec.Decode(&fr); err != nil {
				var tooBig *ErrMessageTooBig
				if errors.As(err, &tooBig) && tooBig.Declared <= fuzzMaxMessage {
					t.Fatalf("message of %d bytes rejected under a %d-byte limit", tooBig.Declared, fuzzMaxMessage)
				}
				break
			}
			if n := framePayload(&fr); n > fuzzMaxMessage {
				t.Fatalf("decoded a frame carrying %d payload bytes under a %d-byte limit", n, fuzzMaxMessage)
			}
		}
		runtime.ReadMemStats(&after)
		// 4x for append-style growth, 1 MiB for gob's one-time type setup.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 4*perByte*uint64(len(data)+fuzzMaxMessage)+1<<20; got > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes, bound is %d", len(data), got, limit)
		}
	})
}

// framePayload sums the variable-size content of a frame.
func framePayload(f *Frame) int {
	n := len(f.Err) + len(f.TraceID) + len(f.Payload)
	if f.Trailer != nil {
		for _, s := range f.Trailer.Spans {
			n += len(s.Name) + len(s.Detail)
		}
	}
	return n
}
