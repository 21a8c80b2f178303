package wire

import (
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Transparent request decompression (Content-Encoding) for the ingest and
// script routes. Readers are pooled — a gzip inflater costs ~40 KiB of
// window state, far too much to allocate per request — and every
// decompressed body is capped: a tiny compressed bomb expanding past the
// route's limit fails with ErrBodyTooLarge (HTTP 413), not an OOM.
//
// gzip and deflate ride on the stdlib. zstd has no stdlib implementation
// and this repo takes no dependencies, so zstd requests, like any other
// token, fail with ErrUnsupportedEncoding (HTTP 415) naming the encodings
// that do work.

var (
	// ErrUnsupportedEncoding marks a Content-Encoding this build cannot
	// inflate. Mapped to HTTP 415.
	ErrUnsupportedEncoding = errors.New("wire: unsupported content encoding")
	// ErrBodyTooLarge marks a (decompressed) request body exceeding the
	// route's cap — the decompression-bomb guard. Mapped to HTTP 413.
	ErrBodyTooLarge = errors.New("wire: request body exceeds size limit")
)

// Encodings lists the Content-Encoding tokens this process accepts, for
// the gateway's capability advertisement.
func Encodings() []string {
	return []string{"identity", "gzip", "deflate"}
}

// Decompress wraps body according to a Content-Encoding token. The empty
// token and "identity" pass the body through. The returned reader must be
// closed to recycle pooled inflater state; closing it does not close body.
func Decompress(body io.Reader, encoding string) (io.ReadCloser, error) {
	switch encoding {
	case "", "identity":
		return io.NopCloser(body), nil
	case "gzip", "x-gzip":
		zr, err := borrowGzipReader(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return zr, nil
	case "deflate":
		return borrowFlateReader(body), nil
	}
	return nil, fmt.Errorf("%w: %q (accepted: %v)", ErrUnsupportedEncoding, encoding, Encodings())
}

// ReadBody reads all of r into buf (growing it as needed) up to limit
// decompressed bytes, returning ErrBodyTooLarge beyond that. buf should
// come from BorrowBuf so steady-state reads allocate nothing.
func ReadBody(r io.Reader, limit int, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			grow := cap(buf)
			if grow < 4<<10 {
				grow = 4 << 10
			}
			if cap(buf)+grow > limit+1 {
				grow = limit + 1 - cap(buf)
			}
			if grow <= 0 {
				return buf, ErrBodyTooLarge
			}
			// Exact-capacity growth (append would round up), so the buffer
			// never exceeds limit+1 bytes no matter how large the bomb.
			nb := make([]byte, len(buf), cap(buf)+grow)
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, ErrBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BorrowBuf hands out a recycled body buffer; ReleaseBuf returns it.
// Buffers that grew past MaxFrameBytes are dropped rather than pinned in
// the pool.
func BorrowBuf() []byte {
	if b, ok := bufPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 64<<10)
}

// ReleaseBuf recycles a buffer obtained from BorrowBuf.
func ReleaseBuf(b []byte) {
	if cap(b) == 0 || cap(b) > MaxFrameBytes {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

var bufPool sync.Pool

// --- pooled gzip ---

type pooledGzipReader struct {
	zr *gzip.Reader
}

var gzipReaderPool sync.Pool

func borrowGzipReader(r io.Reader) (*pooledGzipReader, error) {
	if p, ok := gzipReaderPool.Get().(*pooledGzipReader); ok {
		if err := p.zr.Reset(r); err != nil {
			gzipReaderPool.Put(p)
			return nil, err
		}
		return p, nil
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &pooledGzipReader{zr: zr}, nil
}

func (p *pooledGzipReader) Read(b []byte) (int, error) { return p.zr.Read(b) }

func (p *pooledGzipReader) Close() error {
	gzipReaderPool.Put(p)
	return nil
}

// --- pooled flate ---

type pooledFlateReader struct {
	fr io.ReadCloser
}

var flateReaderPool sync.Pool

func borrowFlateReader(r io.Reader) *pooledFlateReader {
	if p, ok := flateReaderPool.Get().(*pooledFlateReader); ok {
		p.fr.(flate.Resetter).Reset(r, nil)
		return p
	}
	return &pooledFlateReader{fr: flate.NewReader(r)}
}

func (p *pooledFlateReader) Read(b []byte) (int, error) { return p.fr.Read(b) }

func (p *pooledFlateReader) Close() error {
	flateReaderPool.Put(p)
	return nil
}

// --- gzip encode (client side) ---

var gzipWriterPool sync.Pool

// AppendGzip appends the gzip compression of src to dst, using a pooled
// compressor.
func AppendGzip(dst, src []byte) []byte {
	w := &sliceWriter{b: dst}
	var zw *gzip.Writer
	if p, ok := gzipWriterPool.Get().(*gzip.Writer); ok {
		zw = p
		zw.Reset(w)
	} else {
		zw = gzip.NewWriter(w)
	}
	zw.Write(src)
	zw.Close()
	gzipWriterPool.Put(zw)
	return w.b
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
