// Transport-level overload defenses: every way a client can hold the
// daemon's resources — an unread response, an unsent body, an oversized
// body, a handler that runs unbounded — is bounded here, and every
// bound that trips is counted in /statsz's overload section.
//
// The admission controller (internal/jobs/overload.go) protects mining
// capacity; this file protects the HTTP layer in front of it. The two
// meet in the wire contract: refusals carry a Retry-After derived from
// the manager's measured drain rate, and a slow /stream consumer is
// evicted by a write deadline onto the same typed stream-lost /
// ?after_gen=N reconnect path a daemon restart uses — eviction costs
// the client a reconnect, never data.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Transport-hardening bounds: generous for any legitimate client,
// tight enough that a hostile or wedged one cannot pin the daemon.
const (
	// DefaultHandlerTimeout bounds non-streaming handlers end to end
	// (including reading the request body).
	DefaultHandlerTimeout = 30 * time.Second
	// DefaultStreamWriteTimeout is the per-write deadline on /stream:
	// a subscriber that cannot absorb one event batch in this long is
	// evicted.
	DefaultStreamWriteTimeout = 10 * time.Second

	// streamBatch bounds the events rendered per stream write cycle,
	// so one reader catching up on a long history cannot monopolize
	// the record lock or build an unbounded in-flight copy.
	streamBatch = 256

	// maxHandlerTimeout / maxStreamWriteTimeout cap the configurable
	// timeouts: beyond these a "timeout" no longer defends anything.
	maxHandlerTimeout     = 10 * time.Minute
	maxStreamWriteTimeout = 10 * time.Minute
	// minBodyBytes keeps the body limit above any legitimate request.
	minBodyBytes = 4 << 10
)

// OverloadConfig tunes the HTTP layer's overload defenses. The zero
// value means production defaults; explicit negatives are rejected
// rather than silently disabling a defense.
type OverloadConfig struct {
	// HandlerTimeout bounds every non-streaming handler — context
	// deadline plus a connection read deadline while the body is
	// decoded (0 = DefaultHandlerTimeout).
	HandlerTimeout time.Duration
	// StreamWriteTimeout is the per-write deadline on the NDJSON
	// stream; exceeding it evicts the subscriber
	// (0 = DefaultStreamWriteTimeout).
	StreamWriteTimeout time.Duration
	// MaxBodyBytes bounds JSON request bodies via http.MaxBytesReader;
	// larger bodies get a typed 413 (0 = maxRequestBody, the decoder's
	// own hard ceiling).
	MaxBodyBytes int64
}

// Validate rejects unusable bounds with errors naming the field.
func (c OverloadConfig) Validate() error {
	if c.HandlerTimeout < 0 || c.HandlerTimeout > maxHandlerTimeout {
		return fmt.Errorf("server: OverloadConfig.HandlerTimeout %v must be in (0,%v]", c.HandlerTimeout, maxHandlerTimeout)
	}
	if c.StreamWriteTimeout < 0 || c.StreamWriteTimeout > maxStreamWriteTimeout {
		return fmt.Errorf("server: OverloadConfig.StreamWriteTimeout %v must be in (0,%v]", c.StreamWriteTimeout, maxStreamWriteTimeout)
	}
	if c.MaxBodyBytes < 0 || (c.MaxBodyBytes > 0 && c.MaxBodyBytes < minBodyBytes) || c.MaxBodyBytes > maxRequestBody {
		return fmt.Errorf("server: OverloadConfig.MaxBodyBytes %d must be 0 or in [%d,%d]", c.MaxBodyBytes, minBodyBytes, maxRequestBody)
	}
	return nil
}

// withDefaults fills zero fields with production values.
func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.HandlerTimeout == 0 {
		c.HandlerTimeout = DefaultHandlerTimeout
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = DefaultStreamWriteTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = maxRequestBody
	}
	return c
}

// withTimeout bounds a non-streaming handler: the request context gets
// a deadline, and its expiry is counted. Streaming and long-poll
// handlers are exempt — holding the connection open is their job.
func (s *Server) withTimeout(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.over.HandlerTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.mu.Lock()
			s.overCounts.HandlerTimeouts++
			s.mu.Unlock()
		}
	}
}

// noteBodyRejected counts a typed 413 from the body limiter.
func (s *Server) noteBodyRejected() {
	s.mu.Lock()
	s.overCounts.BodyLimitRejections++
	s.mu.Unlock()
}

// noteStreamEviction counts a slow subscriber killed by the write
// deadline. The evicted client reconnects with ?after_gen=N; the
// daemon logs which job lost a reader.
func (s *Server) noteStreamEviction(jobID string, err error) {
	s.mu.Lock()
	s.overCounts.StreamEvictions++
	s.mu.Unlock()
	s.logf("stream subscriber of job %s evicted: write stalled past %v (%v); client resumes via ?after_gen",
		jobID, s.over.StreamWriteTimeout, err)
}
