//go:build !unix

package rpcio

import "net"

// rawPeek off unix has no read that does not wait: every look finds
// nothing, so Finish blocks in a read, with the deadline timer armed,
// whenever the reply is not already in the receive buffer, and a
// deadline's expiry is final.
type rawPeek struct{}

func (*rawPeek) init(*net.TCPConn) {}

func (*rawPeek) look([]byte) (int, error) { return 0, errWouldBlock }
