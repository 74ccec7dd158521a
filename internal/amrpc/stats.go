package amrpc

// Transport statistics for observability. Counters are plain atomics
// bumped on paths that already pay a syscall or a lock, so the accounting
// is free at the call-rate scale; internal/obs exports them as gauges via
// pull-side registry callbacks.

import "sync/atomic"

// clientStats is the Client's internal counter block.
type clientStats struct {
	calls           atomic.Uint64
	attempts        atomic.Uint64
	retries         atomic.Uint64
	transportErrors atomic.Uint64
	reconnects      atomic.Uint64
}

// ClientStats is a snapshot of a Client's transport counters.
type ClientStats struct {
	// Calls is the number of logical invocations issued.
	Calls uint64
	// Attempts is the number of wire attempts (>= Calls; the excess is
	// retries).
	Attempts uint64
	// Retries is the number of attempts beyond the first of their call.
	Retries uint64
	// TransportErrors counts attempts that failed at the transport level.
	TransportErrors uint64
	// Reconnects counts connections established after the first.
	Reconnects uint64
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:           c.stats.calls.Load(),
		Attempts:        c.stats.attempts.Load(),
		Retries:         c.stats.retries.Load(),
		TransportErrors: c.stats.transportErrors.Load(),
		Reconnects:      c.stats.reconnects.Load(),
	}
}

// serverStats is the Server's internal counter block.
type serverStats struct {
	conns         atomic.Uint64
	requests      atomic.Uint64
	checksumDrops atomic.Uint64
	malformed     atomic.Uint64
	errorReplies  atomic.Uint64
	queued        atomic.Uint64
	rejected      atomic.Uint64
	sheds         atomic.Uint64
	flushes       atomic.Uint64
	flushFrames   atomic.Uint64
}

// ServerStats is a snapshot of a Server's wire counters. The state
// handoff's replication stream rides the same servers as application
// traffic, so these cover both.
type ServerStats struct {
	// Conns is the number of connections accepted.
	Conns uint64 `json:"conns"`
	// Requests is the number of well-formed requests dispatched to a
	// handler.
	Requests uint64 `json:"requests"`
	// ChecksumDrops counts frames dropped silently for a CRC mismatch.
	ChecksumDrops uint64 `json:"checksum_drops"`
	// Malformed counts frames refused as undecodable (CodeBadRequest).
	Malformed uint64 `json:"malformed"`
	// ErrorReplies counts requests answered with an application or
	// routing error.
	ErrorReplies uint64 `json:"error_replies"`
	// Queued counts requests that entered a connection's work queue with
	// at least one request already ahead of them (approximate: the depth
	// is sampled at enqueue).
	Queued uint64 `json:"queued"`
	// Rejected counts requests refused with CodeOverloaded because their
	// connection's work queue was full — the MaxConcurrentPerConn bound
	// holding against a pipelining client.
	Rejected uint64 `json:"rejected"`
	// Sheds counts requests refused with CodeOverloaded by the
	// admission-aware shed policy before reaching the moderator.
	Sheds uint64 `json:"sheds"`
	// Flushes counts conn.Write calls carrying responses; FlushFrames
	// counts the response frames they carried. FlushFrames/Flushes is the
	// mean write batch — above 1 means responses are sharing syscalls.
	Flushes     uint64 `json:"flushes"`
	FlushFrames uint64 `json:"flush_frames"`
}

// Stats returns a snapshot of the server's wire counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:         s.stats.conns.Load(),
		Requests:      s.stats.requests.Load(),
		ChecksumDrops: s.stats.checksumDrops.Load(),
		Malformed:     s.stats.malformed.Load(),
		ErrorReplies:  s.stats.errorReplies.Load(),
		Queued:        s.stats.queued.Load(),
		Rejected:      s.stats.rejected.Load(),
		Sheds:         s.stats.sheds.Load(),
		Flushes:       s.stats.flushes.Load(),
		FlushFrames:   s.stats.flushFrames.Load(),
	}
}
