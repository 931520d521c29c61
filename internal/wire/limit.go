package wire

import (
	"bufio"
	"fmt"
	"io"
)

// DefaultMaxMessageBytes bounds a single gob message (request, response
// or frame) on both decode paths unless overridden. Large enough for any
// sanely-batched frame, small enough that a hostile length declaration
// cannot balloon the process.
const DefaultMaxMessageBytes = 64 << 20

// ErrMessageTooBig reports a peer declaring a gob message larger than
// the configured limit. The connection it arrived on is desynced by
// construction and must be discarded.
type ErrMessageTooBig struct {
	Declared int64
	Limit    int64
}

func (e *ErrMessageTooBig) Error() string {
	return fmt.Sprintf("wire: peer declared a %d-byte message, limit is %d", e.Declared, e.Limit)
}

// limitReader enforces a per-message byte ceiling on a gob stream by
// parsing gob's own wire framing (each message is a gob-encoded unsigned
// byte count followed by that many payload bytes) as the bytes flow
// through. An oversize declaration is rejected while still inside the
// header — before encoding/gob ever sees the count — so a malformed or
// hostile peer cannot make the decoder allocate unbounded memory; gob's
// internal 1 GiB cap never becomes the effective limit.
//
// The framing parsed here is the stable gob unsigned-integer encoding:
// a count below 128 is one byte; otherwise the first byte is 256-n for
// an n-byte big-endian count (n ≤ 8).
type limitReader struct {
	r   *bufio.Reader
	max int64
	// remaining payload bytes of the current message; 0 means the next
	// byte starts a new message header.
	remaining int64
	// hdr holds the header re-encoded for gob, so passing one on costs
	// no allocation.
	hdr [9]byte
}

// newLimitReader wraps r. max ≤ 0 applies DefaultMaxMessageBytes.
func newLimitReader(r io.Reader, max int64) *limitReader {
	if max <= 0 {
		max = DefaultMaxMessageBytes
	}
	return &limitReader{r: bufio.NewReader(r), max: max}
}

// header consumes one message header from the underlying stream and
// returns the declared payload length.
func (l *limitReader) header() (int64, error) {
	b, err := l.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b <= 0x7f {
		return int64(b), nil
	}
	n := 256 - int(b)
	if n < 1 || n > 8 {
		return 0, fmt.Errorf("wire: malformed gob message header byte %#x", b)
	}
	var v uint64
	for i := 0; i < n; i++ {
		c, err := l.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v = v<<8 | uint64(c)
	}
	if v > 1<<62 {
		return 0, fmt.Errorf("wire: malformed gob message length %d", v)
	}
	return int64(v), nil
}

// Read implements io.Reader. It refuses to deliver the header of a
// message whose declared length exceeds the limit, returning
// *ErrMessageTooBig instead; gob surfaces that error from Decode and the
// caller discards the connection.
func (l *limitReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if l.remaining == 0 {
		n, err := l.header()
		if err != nil {
			return 0, err
		}
		if n > l.max {
			return 0, &ErrMessageTooBig{Declared: n, Limit: l.max}
		}
		// Re-encode the header for gob, which parses it itself. The
		// encoding is canonical, so round-tripping is loss-free.
		hdr := appendGobUint(l.hdr[:0], uint64(n))
		l.remaining = n
		copied := copy(p, hdr)
		if copied < len(hdr) {
			// Caller's buffer is smaller than the header (gob never does
			// this — its bufio reads are ≥ 16 bytes — but stay correct).
			l.r = prependReader(hdr[copied:], l.r)
		}
		return copied, nil
	}
	want := int64(len(p))
	if want > l.remaining {
		want = l.remaining
	}
	n, err := l.r.Read(p[:want])
	l.remaining -= int64(n)
	return n, err
}

// appendGobUint appends gob's unsigned-integer encoding of v.
func appendGobUint(dst []byte, v uint64) []byte {
	if v <= 0x7f {
		return append(dst, byte(v))
	}
	var tmp [8]byte
	n := 0
	for x := v; x > 0; x >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		tmp[n-1-i] = byte(v >> (8 * i))
	}
	dst = append(dst, byte(256-n))
	return append(dst, tmp[:n]...)
}

// prependReader pushes already-consumed bytes back in front of r.
func prependReader(head []byte, r *bufio.Reader) *bufio.Reader {
	return bufio.NewReader(io.MultiReader(newByteReader(head), r))
}

type byteReader struct{ b []byte }

func newByteReader(b []byte) *byteReader { return &byteReader{b: append([]byte(nil), b...)} }

func (br *byteReader) Read(p []byte) (int, error) {
	if len(br.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, br.b)
	br.b = br.b[n:]
	return n, nil
}
