package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"strings"
	"testing"
)

// appendGobUint must reproduce gob's own unsigned-integer encoding
// exactly, since the limit reader re-synthesizes consumed headers from
// it. Cross-check against lengths gob itself produced.
func TestAppendGobUintMatchesGob(t *testing.T) {
	for _, size := range []int{0, 1, 100, 127, 128, 255, 256, 1 << 16, 1 << 20} {
		var buf bytes.Buffer
		payload := strings.Repeat("a", size)
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			t.Fatal(err)
		}
		// gob writes (header bytes for the type message and the value
		// message); decode them with our header parser and verify the
		// stream re-assembles byte-identically.
		lr := newLimitReader(bytes.NewReader(buf.Bytes()), 0)
		out, err := io.ReadAll(lr)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(out, buf.Bytes()) {
			t.Fatalf("size %d: limit reader altered the stream", size)
		}
	}
}

// A stream of several messages passes through the limit unchanged and
// stays decodable.
func TestLimitReaderPassesCompliantStream(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := 0; i < 5; i++ {
		if err := enc.Encode(&Request{Op: OpQueryStream, Query: strings.Repeat("q", 100*i)}); err != nil {
			t.Fatal(err)
		}
	}
	dec := gob.NewDecoder(newLimitReader(bytes.NewReader(buf.Bytes()), 4096))
	for i := 0; i < 5; i++ {
		var req Request
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if len(req.Query) != 100*i {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

// An oversize declaration is rejected from the header alone — the
// decoder never sees the count, so nothing is allocated for it.
func TestLimitReaderRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Request{Query: strings.Repeat("q", 10000)}); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(newLimitReader(bytes.NewReader(buf.Bytes()), 512))
	var req Request
	err := dec.Decode(&req)
	var tooBig *ErrMessageTooBig
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
	if tooBig.Limit != 512 || tooBig.Declared <= 512 {
		t.Fatalf("bad limit report: %+v", tooBig)
	}
}

// A hostile header declaring an absurd length (beyond any allocation the
// process could survive) is rejected, not passed to gob.
func TestLimitReaderRejectsHostileHeader(t *testing.T) {
	// 0xfb = 256-5: a 5-byte big-endian count follows — 1 TiB here,
	// within gob's encodable range but far over any sane limit.
	hostile := []byte{0xfb, 0x01, 0x00, 0x00, 0x00, 0x00}
	var req Request
	err := gob.NewDecoder(newLimitReader(bytes.NewReader(hostile), 0)).Decode(&req)
	if err == nil {
		t.Fatal("hostile length accepted")
	}
	var tooBig *ErrMessageTooBig
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}

	// A length beyond even gob's encodable range is rejected as malformed.
	absurd := []byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	err = gob.NewDecoder(newLimitReader(bytes.NewReader(absurd), 0)).Decode(&req)
	if err == nil || errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want malformed-length rejection", err)
	}
}

// A malformed header byte (reserved range) errors cleanly.
func TestLimitReaderRejectsMalformedHeader(t *testing.T) {
	var req Request
	err := gob.NewDecoder(newLimitReader(bytes.NewReader([]byte{0xf0}), 0)).Decode(&req)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want malformed-header error", err)
	}
}

// Truncation inside a header surfaces as an unexpected EOF, not a hang
// or a silent success.
func TestLimitReaderTruncatedHeader(t *testing.T) {
	// Declares a 2-byte count but provides only one byte of it.
	var req Request
	err := gob.NewDecoder(newLimitReader(bytes.NewReader([]byte{0xfe, 0x01}), 0)).Decode(&req)
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

// The partial-header-copy path (caller buffer smaller than the header)
// still delivers an intact stream.
func TestLimitReaderTinyReads(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(strings.Repeat("z", 300)); err != nil {
		t.Fatal(err)
	}
	lr := newLimitReader(bytes.NewReader(buf.Bytes()), 0)
	var out []byte
	p := make([]byte, 1) // force the hdr-larger-than-buffer edge
	for {
		n, err := lr.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, buf.Bytes()) {
		t.Fatal("tiny reads altered the stream")
	}
}

// Passing a message header on to gob costs nothing: reading a stream of
// small messages allocates nothing per message.
func TestLimitReaderSmallMessagesAllocateNothing(t *testing.T) {
	const messages = 200
	var stream []byte
	for i := 0; i < messages; i++ {
		stream = appendGobUint(stream, 300) // a two-byte header...
		stream = append(stream, bytes.Repeat([]byte{byte(i)}, 300)...)
	}
	lr := newLimitReader(bytes.NewReader(stream), 0)
	p := make([]byte, 512)
	allocs := testing.AllocsPerRun(messages-1, func() {
		if n, err := lr.Read(p); err != nil || n != 3 {
			t.Fatalf("header: read %d bytes (%v), want 3", n, err)
		}
		for got := 0; got < 300; { // ...then the payload, in as many reads as it takes
			n, err := lr.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	})
	if allocs != 0 {
		t.Fatalf("reading a message allocates %.1f objects", allocs)
	}
}
