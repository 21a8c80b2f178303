package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// subscriber is the one result-stream connection: it reads the probe query's
// ndjson push stream, stamps the arrival of each epoch's first tuple (the
// freshness sample and the pusher's gate), counts tuples per epoch (rate
// conformance), hashes the first hashEpochs epochs (cross-codec identity) and
// keeps the raw tail (post-crash identity).
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	notify     chan struct{} // closed and replaced whenever a new epoch shows up
	first      []time.Time   // first[e]: arrival of epoch e's first probe tuple
	counts     []int         // counts[e]: probe tuples of epoch e
	total      uint64        // tuples received
	dropped    uint64        // sum of {"dropped":n} notices
	refHash    hash.Hash     // over the raw lines of epochs < hashEpochs
	hashEpochs int
	tail       [][]byte // ring of the last tailLines raw lines
	tailAt     int
	err        error // terminal read error (nil on a cancelled stream)
}

// subscribe opens the stream from cursor and returns once the response
// headers are in, so set-up covers the attach.
func subscribe(ctx context.Context, client *http.Client, baseURL, session string, cursor uint64, hashEpochs int) (*subscriber, error) {
	sctx, cancel := context.WithCancel(ctx)
	url := fmt.Sprintf("%s/v1/sessions/%s/results/%s/stream?cursor=%d", baseURL, session, probeQueryID, cursor)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("bench: subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("bench: subscribe: status %d", resp.StatusCode)
	}
	s := &subscriber{
		cancel:     cancel,
		done:       make(chan struct{}),
		notify:     make(chan struct{}),
		refHash:    sha256.New(),
		hashEpochs: hashEpochs,
		tail:       make([][]byte, tailLines),
	}
	go s.read(sctx, resp.Body)
	return s, nil
}

func (s *subscriber) read(ctx context.Context, body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	// One reader buffer well above the server's 512-tuple flush chunk.
	r := bufio.NewReaderSize(body, 256<<10)
	last := -1
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			s.mu.Lock()
			if ctx.Err() == nil {
				// Not our cancel: the daemon went away or the stream broke.
				s.err = fmt.Errorf("bench: result stream ended: %w", err)
			}
			close(s.notify)
			s.notify = make(chan struct{})
			s.mu.Unlock()
			return
		}
		if bytes.HasPrefix(line, []byte(`{"dropped":`)) {
			n, _ := strconv.ParseUint(string(bytes.TrimRight(line[len(`{"dropped":`):], "}\n")), 10, 64)
			s.mu.Lock()
			s.dropped += n
			s.mu.Unlock()
			continue
		}
		e, ok := lineEpoch(line)
		if !ok {
			s.mu.Lock()
			s.err = fmt.Errorf("bench: unparsable stream line %q", line)
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if e != last {
			now := time.Now()
			for len(s.first) <= e {
				s.first = append(s.first, time.Time{})
				s.counts = append(s.counts, 0)
			}
			if s.first[e].IsZero() {
				s.first[e] = now
			}
			last = e
			close(s.notify)
			s.notify = make(chan struct{})
		}
		s.counts[e]++
		s.total++
		if e < s.hashEpochs {
			s.refHash.Write(line)
		}
		slot := &s.tail[s.tailAt]
		*slot = append((*slot)[:0], line...)
		s.tailAt = (s.tailAt + 1) % len(s.tail)
		s.mu.Unlock()
	}
}

// lineEpoch extracts floor(t) from one ndjson tuple line.
func lineEpoch(line []byte) (int, bool) {
	i := bytes.Index(line, []byte(`"t":`))
	if i < 0 {
		return 0, false
	}
	rest := line[i+4:]
	j := bytes.IndexByte(rest, ',')
	if j < 0 {
		return 0, false
	}
	t, err := strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil || t < 0 {
		return 0, false
	}
	return int(t), true
}

var errNeverDelivered = errors.New("bench: epoch's probe tuples never arrived")

// waitEpoch blocks until epoch e's first probe tuple has arrived and returns
// its arrival time.
func (s *subscriber) waitEpoch(ctx context.Context, e int) (time.Time, error) {
	for {
		s.mu.Lock()
		if e < len(s.first) && !s.first[e].IsZero() {
			t := s.first[e]
			s.mu.Unlock()
			return t, nil
		}
		err, ch := s.err, s.notify
		s.mu.Unlock()
		if err != nil {
			return time.Time{}, err
		}
		select {
		case <-ch:
		case <-s.done:
			return time.Time{}, s.endErr()
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("%w (epoch %d): %v", errNeverDelivered, e, ctx.Err())
		}
	}
}

// endErr is why a finished stream cannot satisfy a wait.
func (s *subscriber) endErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return errNeverDelivered
}

// waitTotal blocks until the subscriber has accounted for every tuple up to
// the given stream position.
func (s *subscriber) waitTotal(ctx context.Context, total uint64) error {
	for {
		s.mu.Lock()
		got, err, ch := s.total+s.dropped, s.err, s.notify
		s.mu.Unlock()
		if got >= total {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case <-ch:
		case <-time.After(time.Millisecond): // notify fires per epoch, not per tuple
		case <-s.done:
			return s.endErr()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// snapshot is the subscriber's state at a quiescent point.
type subSnapshot struct {
	first   []time.Time
	counts  []int
	total   uint64
	dropped uint64
	refSum  [sha256.Size]byte
	tail    []byte // the last min(total, tailLines) raw lines, oldest first
	tailN   int
	err     error
}

func (s *subscriber) snapshot() subSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := subSnapshot{
		first:   append([]time.Time(nil), s.first...),
		counts:  append([]int(nil), s.counts...),
		total:   s.total,
		dropped: s.dropped,
		err:     s.err,
	}
	copy(snap.refSum[:], s.refHash.Sum(nil))
	n := len(s.tail)
	if s.total < uint64(n) {
		n = int(s.total)
	}
	for i := 0; i < n; i++ {
		snap.tail = append(snap.tail, s.tail[(s.tailAt-n+i+2*len(s.tail))%len(s.tail)]...)
	}
	snap.tailN = n
	return snap
}

// close detaches from the stream and waits for the reader to exit.
func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
