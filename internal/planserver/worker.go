package planserver

// The worker half of distributed range verification: a distverify
// coordinator checksums a plan's round ranges, then ships each one here
// — by the content-hash id of a previously uploaded plan, or
// self-contained with the range's bytes inline — and this endpoint runs
// the open-range stream validator (linecomm.ValidateStreamOpen) over
// it. The answer is the range's Result plus its informed set and the
// callers it assumed informed earlier, as order-bit bitmaps the
// coordinator's linecomm.MergeOpenRanges checks. Everything a request
// claims is checked against what the bytes say: the span CRC must match
// what the decode accumulates (409 otherwise — verifying different
// bytes than the coordinator checksummed would merge a lie into its
// report), and any refusal is the structured 4xx envelope, never a
// 500.

import (
	"hash/crc32"
	"net/http"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// handleRangeVerify serves POST /v1/ranges/verify: one open range
// validation (distverify.RangeRequest in, distverify.RangeResponse
// out).
func (s *Server) handleRangeVerify(w http.ResponseWriter, r *http.Request) {
	var req distverify.RangeRequest
	if err := decodeJSONBody(w, r, s.maxUpload, &req); err != nil {
		writeError(w, uploadStatus(err), "range request: %v", err)
		return
	}
	if (req.PlanID == "") == (req.Plan == nil) {
		writeError(w, http.StatusBadRequest, "exactly one of plan_id and plan must be set")
		return
	}
	lo, hi := req.StartRound, req.EndRound
	if lo < 0 || lo >= hi {
		writeError(w, http.StatusBadRequest, "round range [%d,%d) is empty", lo, hi)
		return
	}

	var (
		cube   *sparsehypercube.Cube
		source uint64
		rr     *schedio.RoundRange
	)
	if req.PlanID != "" {
		sp, ok := s.lookupPlan(req.PlanID)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown plan %q", req.PlanID)
			return
		}
		defer sp.release()
		if sp.info.Scheme == "gossip" {
			writeError(w, http.StatusBadRequest, "range verification applies the broadcast model; plan %q is a %q plan", req.PlanID, sp.info.Scheme)
			return
		}
		if !sp.info.Indexed {
			writeError(w, http.StatusBadRequest, "plan %q has no round index", req.PlanID)
			return
		}
		if hi > sp.info.Rounds {
			writeError(w, http.StatusBadRequest, "round range [%d,%d) outside [0,%d)", lo, hi, sp.info.Rounds)
			return
		}
		cube, source = sp.plan.Cube(), sp.info.Source
		var err error
		if rr, err = sp.at.Range(lo, hi); err != nil {
			writeError(w, http.StatusBadRequest, "range: %v", err)
			return
		}
	} else {
		p := req.Plan
		c, err := sparsehypercube.NewWithDims(p.K, p.Dims)
		if err != nil {
			writeError(w, http.StatusBadRequest, "range cube: %v", err)
			return
		}
		if err := s.checkN(c.N()); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Refuse before validating: checking the claimed span CRC here is
		// one cheap scan, and a mismatch means the coordinator and this
		// worker would be talking about different bytes.
		if crc := crc32.ChecksumIEEE(p.Span); crc != req.SpanCRC {
			writeError(w, http.StatusConflict, "span checksum mismatch: computed %08x, request claims %08x", crc, req.SpanCRC)
			return
		}
		h := schedio.Header{K: p.K, Dims: p.Dims, Scheme: "broadcast", Source: p.Source}
		if rr, err = schedio.DecodeSpan(h, p.Span, lo, hi); err != nil {
			writeError(w, http.StatusBadRequest, "range: %v", err)
			return
		}
		cube, source = c, p.Source
	}
	if source >= cube.Order() {
		writeError(w, http.StatusBadRequest, "source %d outside [0,%d)", source, cube.Order())
		return
	}

	release := s.acquireVerify()
	start := time.Now()
	part := linecomm.ValidateStreamOpen(cube, cube.K(), source, lo,
		rr.Rounds(), linecomm.DefaultOptions())
	s.observeVerify(start)
	release()
	// The decode is trusted no further than the bytes deserve: the range
	// must have drained cleanly, consumed exactly its declared span, and
	// checksummed to what the coordinator expects — otherwise the part
	// above judged different bytes than the coordinator will merge. (A
	// cube the validator refuses drains nothing, so it is refused here.)
	crc, err := rr.CRC()
	if err != nil {
		writeError(w, http.StatusBadRequest, "range decode: %v", err)
		return
	}
	if crc != req.SpanCRC {
		writeError(w, http.StatusConflict, "span checksum mismatch: computed %08x, request claims %08x", crc, req.SpanCRC)
		return
	}
	writeJSON(w, http.StatusOK, distverify.ResponseFromOpenRange(part, lo, hi, crc))
}
