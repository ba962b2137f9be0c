package rpcio

import (
	"errors"
	"net"
	"sync"
	"time"

	"padll/internal/clock"
)

// ErrInjectedFailure is what a FlakyConn returns once its scripted
// failure point is reached.
var ErrInjectedFailure = errors.New("rpcio: injected connection failure")

// Flakiness scripts a connection's misbehavior. All triggers are
// counter-based (every Nth chunk), so a single-connection exchange
// misbehaves identically on every run; waits run on the injected clock.
//
// Both frame peers write one whole frame per Write, so "chunk" here is a
// message for the purposes of dropping, duplicating, and delaying.
type Flakiness struct {
	// DropEvery silently discards every Nth written chunk (0 = never):
	// the peer keeps waiting for a message that never arrives, which is
	// what per-call deadlines exist to catch.
	DropEvery int
	// DupEvery writes every Nth chunk twice (0 = never). Both peers
	// write one whole frame per Write, so the duplicate is a whole frame
	// on a stream the reader no longer awaits, which it drops.
	DupEvery int
	// DelayEvery sleeps Delay before every Nth written chunk (0 = never).
	DelayEvery int
	Delay      time.Duration
	// FailAfter kills the connection after N chunks in either direction
	// (0 = never): subsequent I/O fails with ErrInjectedFailure and the
	// underlying conn is closed so the peer observes EOF.
	FailAfter int
	// Clock runs the injected delays (default: wall clock).
	Clock clock.Clock
}

func (f Flakiness) clock() clock.Clock {
	if f.Clock != nil {
		return f.Clock
	}
	return clock.NewReal()
}

// FlakyConn wraps a net.Conn with scripted drops, duplicates, delays,
// and a failure point. It is the wire-level test double the rpcio
// hardening is proved against.
type FlakyConn struct {
	net.Conn
	cfg Flakiness

	mu     sync.Mutex
	writes int
	chunks int
	dead   bool
}

// NewFlakyConn wraps conn.
func NewFlakyConn(conn net.Conn, cfg Flakiness) *FlakyConn {
	return &FlakyConn{Conn: conn, cfg: cfg}
}

// step advances the chunk counters and reports (drop, dup, delay) for a
// written chunk; for reads only the failure point applies.
func (c *FlakyConn) step(isWrite bool) (drop, dup, delay, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, false, false, true
	}
	c.chunks++
	if c.cfg.FailAfter > 0 && c.chunks > c.cfg.FailAfter {
		c.dead = true
		return false, false, false, true
	}
	if !isWrite {
		return false, false, false, false
	}
	c.writes++
	drop = c.cfg.DropEvery > 0 && c.writes%c.cfg.DropEvery == 0
	dup = c.cfg.DupEvery > 0 && c.writes%c.cfg.DupEvery == 0
	delay = c.cfg.DelayEvery > 0 && c.writes%c.cfg.DelayEvery == 0
	return drop, dup, delay, false
}

func (c *FlakyConn) kill() {
	// The peer should observe a closed stream, not a hang; a double
	// close only returns "already closed".
	_ = c.Conn.Close()
}

// Write implements net.Conn with the scripted misbehavior.
func (c *FlakyConn) Write(p []byte) (int, error) {
	drop, dup, delay, dead := c.step(true)
	if dead {
		c.kill()
		return 0, ErrInjectedFailure
	}
	if delay && c.cfg.Delay > 0 {
		c.cfg.clock().Sleep(c.cfg.Delay)
	}
	if drop {
		return len(p), nil // swallowed: caller believes it was sent
	}
	n, err := c.Conn.Write(p)
	if err == nil && dup {
		if _, derr := c.Conn.Write(p); derr != nil {
			return n, derr
		}
	}
	return n, err
}

// Read implements net.Conn; only the failure point applies to reads.
func (c *FlakyConn) Read(p []byte) (int, error) {
	if _, _, _, dead := c.step(false); dead {
		c.kill()
		return 0, ErrInjectedFailure
	}
	return c.Conn.Read(p)
}

// FlakyListener wraps every accepted connection in a FlakyConn with a
// fresh counter set, so each connection replays the same script.
type FlakyListener struct {
	net.Listener
	Flaky Flakiness
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return NewFlakyConn(conn, l.Flaky), nil
}
