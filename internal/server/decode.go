// Strict decoding of mining requests. Everything a client can send is
// bounded here, before a job object exists: unknown fields, trailing
// garbage, absurd thresholds and negative deadlines all come back as
// one typed 400 — never a panic, never an admitted job. A request
// carries only its query, so the engine settings of gpapriori.Config
// (workers, the simulator's device pool and fault schedule) are
// unknown fields here, and an algorithm name is checked, then ignored.
// The fuzz target in decode_fuzz_test.go holds the package to that
// contract.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"

	"gpapriori"
)

// Request-validation bounds. Generous for any real workload, tight
// enough that a hostile value cannot drive allocation or scheduling
// decisions off a cliff.
const (
	maxRequestBody = 1 << 20 // 1 MiB of JSON is already absurd
	maxMaxLen      = 1 << 16
	maxAbsPriority = 1 << 20
	maxDeadlineSec = 24 * 60 * 60
)

// badRequest builds the decoder's uniform typed error.
func badRequest(format string, args ...any) *gpapriori.ServeError {
	return &gpapriori.ServeError{
		Status:  http.StatusBadRequest,
		Code:    "bad_request",
		Message: fmt.Sprintf(format, args...),
	}
}

// bodyTooLarge is the typed 413 for a body past the configured limit —
// distinct from over_budget (job footprint) and never a parse panic.
func bodyTooLarge(limit int64) *gpapriori.ServeError {
	return &gpapriori.ServeError{
		Status:  http.StatusRequestEntityTooLarge,
		Code:    "body_too_large",
		Message: fmt.Sprintf("request body exceeds %d bytes", limit),
	}
}

// DecodeMineRequest reads one ServeMineRequest from r, rejecting
// unknown fields, trailing content, and out-of-range values. The
// returned error is always a *ServeError: status 413 when r is an
// http.MaxBytesReader whose limit tripped, status 400 for everything
// else; the request is non-nil only on success.
func DecodeMineRequest(r io.Reader) (*gpapriori.ServeMineRequest, *gpapriori.ServeError) {
	// The +1 keeps this hard ceiling from truncating just below an
	// http.MaxBytesReader set to exactly maxRequestBody: the limiter
	// must see one byte past its limit to report the typed 413.
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBody+1))
	dec.DisallowUnknownFields()
	req := &gpapriori.ServeMineRequest{}
	if err := dec.Decode(req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, bodyTooLarge(mbe.Limit)
		}
		if errors.Is(err, io.EOF) {
			return nil, badRequest("empty request body")
		}
		return nil, badRequest("malformed request: %v", err)
	}
	// A second Decode must hit EOF: one JSON document per request.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, bodyTooLarge(mbe.Limit)
		}
		return nil, badRequest("trailing content after request body")
	}
	if se := ValidateMineRequest(req); se != nil {
		return nil, se
	}
	return req, nil
}

// ValidateMineRequest range-checks a decoded request.
func ValidateMineRequest(req *gpapriori.ServeMineRequest) *gpapriori.ServeError {
	if req.Dataset == "" {
		return badRequest("dataset is required")
	}
	if err := validateDatasetName(req.Dataset); err != nil {
		return badRequest("%v", err)
	}
	if req.Algorithm != "" && !slices.Contains(gpapriori.Algorithms(), gpapriori.Algorithm(req.Algorithm)) {
		return badRequest("unknown algorithm %q (have %v)", req.Algorithm, gpapriori.Algorithms())
	}
	switch {
	case req.MinSupport < 0:
		return badRequest("min_support must be >= 1 (got %d)", req.MinSupport)
	case req.MinSupport == 0 && req.RelativeSupport == 0:
		return badRequest("one of min_support or relative_support is required")
	case req.MinSupport != 0 && req.RelativeSupport != 0:
		return badRequest("min_support and relative_support are mutually exclusive")
	case req.RelativeSupport < 0 || req.RelativeSupport > 1 ||
		math.IsNaN(req.RelativeSupport):
		return badRequest("relative_support must be in (0,1] (got %v)", req.RelativeSupport)
	}
	if req.MaxLen < 0 || req.MaxLen > maxMaxLen {
		return badRequest("max_len must be in [0,%d] (got %d)", maxMaxLen, req.MaxLen)
	}
	if req.Priority < -maxAbsPriority || req.Priority > maxAbsPriority {
		return badRequest("priority must be in [%d,%d] (got %d)", -maxAbsPriority, maxAbsPriority, req.Priority)
	}
	if req.DeadlineSec < 0 || req.DeadlineSec > maxDeadlineSec ||
		math.IsNaN(req.DeadlineSec) || math.IsInf(req.DeadlineSec, 0) {
		return badRequest("deadline_sec must be in [0,%d] (got %v)", maxDeadlineSec, req.DeadlineSec)
	}
	return nil
}
