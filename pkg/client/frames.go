// The frame stream reader: reads length-prefixed frames off a
// connection and decodes each body straight into the BatchWire the
// caller receives with the wire package's Decoder, the one frame
// decoder there is. A test-only reference decoder in frames_test.go
// is what it must agree with (FuzzDecodeFrameBatch).
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// CorruptFrameError wraps a parse failure of a fully received frame.
// It is terminal — reconnecting replays the same bytes — unlike the
// io.ErrUnexpectedEOF of a cut connection, which a stream cures by
// resuming from its cursor.
type CorruptFrameError struct{ Err error }

func (e *CorruptFrameError) Error() string { return e.Err.Error() }
func (e *CorruptFrameError) Unwrap() error { return e.Err }

const (
	// frameChunk is the step the body buffer grows by as bytes arrive,
	// so a hostile length prefix followed by a stall cannot make the
	// reader allocate the MaxFrameBytes it claims.
	frameChunk = 64 << 10
	// maxKeptScratch caps the bytes of a body buffer the reader keeps
	// for the next frame; a larger one is left to the GC.
	maxKeptScratch = 1 << 20
)

// frameReader reads one connection's frame stream.
type frameReader struct {
	r    *bufio.Reader
	n    int64  // wire bytes consumed
	body []byte // frame body buffer, reused across frames
	dec  wire.Decoder
}

func newFrameReader(r io.Reader) *frameReader {
	// The default buffer size: a stream opened at a cursor for a few
	// batches pays for its buffer on every open, and body reads larger
	// than the buffer bypass it anyway.
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads and decodes one frame. io.EOF means a clean end at a frame
// boundary; io.ErrUnexpectedEOF (and transport read errors) mean the
// stream was cut mid-frame and may resume by cursor; *StreamError
// carries an in-band server error and *CorruptFrameError a fully
// received frame that does not parse — both terminal.
func (f *frameReader) next() (*BatchWire, error) {
	ln, err := f.readLength()
	if err != nil {
		return nil, err
	}
	body, err := f.readBody(ln)
	if err != nil {
		return nil, err
	}
	w, err := f.dec.Decode(body)
	if err != nil {
		var se *StreamError
		if !errors.As(err, &se) {
			err = &CorruptFrameError{err}
		}
		return nil, err
	}
	return w, nil
}

// readLength reads the frame length prefix, accepting exactly the
// prefixes binary.Uvarint accepts. A prefix that overflows 64 bits, or a length of
// zero or above MaxFrameBytes, is corrupt; one cut short is
// io.ErrUnexpectedEOF.
func (f *frameReader) readLength() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); ; i, s = i+1, s+7 {
		b, err := f.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		f.n++
		if i == binary.MaxVarintLen64 || i == binary.MaxVarintLen64-1 && b > 1 && b < 0x80 {
			return 0, &CorruptFrameError{errors.New("client: frame length prefix overflows 64 bits")}
		}
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			if x == 0 || x > wire.MaxFrameBytes {
				return 0, &CorruptFrameError{fmt.Errorf("client: bad frame length %d", x)}
			}
			return x, nil
		}
	}
}

// readBody reads a frame body of ln bytes into the reused buffer,
// growing it only as the bytes arrive.
func (f *frameReader) readBody(ln uint64) ([]byte, error) {
	body := f.body[:0]
	for uint64(len(body)) < ln {
		want := int(min(ln-uint64(len(body)), frameChunk))
		body = slices.Grow(body, want)[:len(body)+want]
		if _, err := io.ReadFull(f.r, body[len(body)-want:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if cap(body) <= maxKeptScratch {
		f.body = body
	}
	f.n += int64(ln)
	return body, nil
}
