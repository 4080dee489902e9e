package planserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"sparsehypercube"
	"sparsehypercube/internal/linecomm"
)

// session is one open incremental verification: a streaming validator
// running in its own goroutine, fed rounds over a channel as batches
// arrive. The validator sees exactly the round stream a file replay
// would produce, so a closed session's Report matches what Verify on
// the equivalent plan file reports.
type session struct {
	id   string
	ch   chan []sparsehypercube.Call
	done chan struct{}

	// report is written once by the validator goroutine before done is
	// closed; readers wait on done first.
	report sparsehypercube.Report

	// lastActive is the unix-nano time of the last open or append — the
	// idle-TTL reaper's clock.
	lastActive atomic.Int64

	// sendMu serialises producers: batches append in arrival order, and
	// close cannot race a send.
	sendMu   sync.Mutex
	closed   bool
	received int
}

// forceClose ends the round stream if it is still open and waits for
// the validator goroutine to drain, reporting whether this call did
// the closing. The reaper and Drain share it; losing the race to a
// client's own close (or to each other) is a clean no-op.
func (sess *session) forceClose() bool {
	sess.sendMu.Lock()
	already := sess.closed
	if !already {
		sess.closed = true
		close(sess.ch)
	}
	sess.sendMu.Unlock()
	if already {
		return false
	}
	<-sess.done
	return true
}

// sessionRequest opens a session. Dims (explicit parameter vector)
// takes precedence over K/N (automatic construction). Scheme names
// bind exactly as stored plans do: "gossip" verifies under the
// telephone-model gossip validator (with optional restricted Sources),
// anything else under single-source broadcast from Source.
type sessionRequest struct {
	K       int      `json:"k"`
	N       int      `json:"n"`
	Dims    []int    `json:"dims,omitempty"`
	Scheme  string   `json:"scheme"`
	Source  uint64   `json:"source"`
	Sources []uint64 `json:"sources,omitempty"`
}

type sessionResponse struct {
	ID string `json:"id"`
}

type roundsResponse struct {
	ID       string `json:"id"`
	Accepted int    `json:"accepted"`
	Received int    `json:"received"`
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.refuseDraining(w)
		return
	}
	var req sessionRequest
	if err := decodeJSONBody(w, r, s.maxUpload, &req); err != nil {
		writeError(w, uploadStatus(err), "session request: %v", err)
		return
	}
	if req.Scheme == "" {
		req.Scheme = "broadcast"
	}
	var (
		cube *sparsehypercube.Cube
		err  error
	)
	if len(req.Dims) > 0 {
		cube, err = sparsehypercube.NewWithDims(len(req.Dims), req.Dims)
	} else {
		cube, err = sparsehypercube.New(req.K, req.N)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "session cube: %v", err)
		return
	}
	if err := s.checkN(cube.N()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sess := &session{
		id:   fmt.Sprintf("s%d", s.sessionSeq.Add(1)),
		ch:   make(chan []sparsehypercube.Call, 16),
		done: make(chan struct{}),
	}
	sess.lastActive.Store(s.now().UnixNano())
	// Each open session pins live validator state until closed or
	// reaped by the idle TTL (drain.go); the cap bounds the worst case.
	if !s.sessions.insert(sess, s.maxSessions) {
		writeError(w, http.StatusTooManyRequests, "session limit reached (%d open)", s.maxSessions)
		return
	}
	s.metrics.sessionsOpened.Add(1)
	go sess.run(cube, req)
	writeJSON(w, http.StatusCreated, sessionResponse{ID: sess.id})
}

// run feeds the channel into the scheme's streaming validator, then
// keeps draining so producers never block on a validator that stopped
// consuming early (bad source, fatal violation).
func (sess *session) run(cube *sparsehypercube.Cube, req sessionRequest) {
	seq := func(yield func([]sparsehypercube.Call) bool) {
		for round := range sess.ch {
			if !yield(round) {
				return
			}
		}
	}
	var rep sparsehypercube.Report
	if req.Scheme == "gossip" {
		rep = sparsehypercube.MultiSourceScheme{Root: req.Source, Sources: req.Sources}.
			VerifyPlan(cube, seq)
	} else {
		rep = cube.Plan(sparsehypercube.RoundScheme(req.Scheme, req.Source, seq)).Verify()
	}
	sess.report = rep
	for range sess.ch {
	}
	close(sess.done)
}

func (s *Server) handleSessionRounds(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	sess.lastActive.Store(s.now().UnixNano())
	batch, err := linecomm.ReadRoundBatch(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		writeError(w, uploadStatus(err), "round batch: %v", err)
		return
	}
	// The channel sends must stay inside the critical section (close
	// cannot race a send), but the response write must not: a slow
	// client draining its response would otherwise hold sendMu and
	// serialise every other producer behind it. Snapshot the counter
	// under the lock, answer after it.
	sess.sendMu.Lock()
	if sess.closed {
		sess.sendMu.Unlock()
		writeError(w, http.StatusConflict, "session %s already closed", sess.id)
		return
	}
	// The decoder's rounds are the validator's: each is a
	// capacity-capped view of the batch's call slab, sent as it is.
	for _, round := range batch {
		sess.ch <- round
	}
	sess.received += len(batch)
	received := sess.received
	sess.sendMu.Unlock()
	writeJSON(w, http.StatusOK, roundsResponse{ID: sess.id, Accepted: len(batch), Received: received})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	sess.sendMu.Lock()
	if sess.closed {
		sess.sendMu.Unlock()
		writeError(w, http.StatusConflict, "session %s already closing", sess.id)
		return
	}
	sess.closed = true
	close(sess.ch)
	sess.sendMu.Unlock()

	<-sess.done
	s.sessions.remove(sess.id)
	writeJSON(w, http.StatusOK, sess.report)
}

// decodeJSONBody decodes one bounded JSON value. Decode returns as soon
// as the value closes, so the rest of the body is read to the limit
// too: an over-limit body is refused (a *http.MaxBytesError, 413) even
// when its value closes early, while bytes after the value within the
// limit stay ignored.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(body).Decode(v)
	if _, rest := io.Copy(io.Discard, body); rest != nil {
		return rest
	}
	return err
}
