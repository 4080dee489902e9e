package planserver

import (
	"context"
	"net/http"
	"time"
)

// Graceful drain and the idle-session reaper. Drain is the SIGTERM
// half of `sparsecube serve`: the http.Server stops accepting at the
// listener, and this stops the work inside — new uploads, one-shot
// verifies, and session opens answer a structured 503 envelope, every
// open session is force-closed (its validator goroutine drained), and
// the call returns once all in-flight verifications have finished.

// Drain puts the server into draining mode and waits, bounded by ctx,
// for in-flight work to finish. It is idempotent; once it returns nil
// the server holds no running validators and no open sessions.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for _, sess := range s.sessions.snapshot() {
		if sess.forceClose() {
			s.metrics.sessionsDrained.Add(1)
		}
		s.sessions.remove(sess.id)
	}
	// Every verification holds one verifySem slot while running, so
	// owning all slots means none are left in flight.
	acquired := 0
	for acquired < cap(s.verifySem) {
		select {
		case s.verifySem <- struct{}{}:
			acquired++
		case <-ctx.Done():
			for ; acquired > 0; acquired-- {
				<-s.verifySem
			}
			return ctx.Err()
		}
	}
	for ; acquired > 0; acquired-- {
		<-s.verifySem
	}
	return nil
}

// refuseDraining answers an entry point that takes on new work while
// the server is shutting down.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	//lint:allow errenvelope a draining server is genuinely unavailable — this is the one server-side refusal, still wrapped in the structured envelope so clients parse it like any other
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// Close stops the background reaper (if any). It does not drain; use
// Drain for that. Safe to call more than once.
func (s *Server) Close() {
	s.stopReaper.Do(func() {
		if s.reaperStop != nil {
			close(s.reaperStop)
			<-s.reaperDone
		}
	})
}

// startReaper launches the idle-session reaper when a TTL is
// configured. The sweep period is a quarter of the TTL, clamped so a
// tiny test TTL doesn't spin and a huge one still notices Close.
func (s *Server) startReaper() {
	if s.sessionTTL <= 0 {
		return
	}
	s.reaperStop = make(chan struct{})
	s.reaperDone = make(chan struct{})
	period := s.sessionTTL / 4
	period = max(period, 10*time.Millisecond)
	period = min(period, time.Minute)
	go s.reapLoop(period)
}

func (s *Server) reapLoop(period time.Duration) {
	defer close(s.reaperDone)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-t.C:
			s.reapIdleSessions()
		}
	}
}

// reapIdleSessions force-closes every session idle past the TTL. A
// session the client is concurrently closing loses the forceClose race
// cleanly (forceClose reports false) and keeps its own removal; one
// the reaper wins answers subsequent appends/closes with the
// structured conflict/not-found envelopes.
func (s *Server) reapIdleSessions() {
	deadline := s.now().Add(-s.sessionTTL).UnixNano()
	for _, sess := range s.sessions.snapshot() {
		if sess.lastActive.Load() > deadline {
			continue
		}
		if sess.forceClose() {
			s.sessions.remove(sess.id)
			s.metrics.sessionsReaped.Add(1)
		}
	}
}
