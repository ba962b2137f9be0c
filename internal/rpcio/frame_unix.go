//go:build unix

package rpcio

import (
	"io"
	"net"
	"syscall"
)

// rawPeek is a connection's look: one read of the socket that does not
// wait, on the descriptor the runtime keeps non-blocking. Its callback
// is built once per connection, so a look allocates nothing.
type rawPeek struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool
	buf []byte
	n   int
	err error
}

func (p *rawPeek) init(conn *net.TCPConn) {
	p.raw, _ = conn.SyscallConn() // fails only for a nil connection
	p.fn = p.read
}

// look reads what the socket holds into buf: errWouldBlock when it
// holds nothing, io.EOF when the peer closed it.
func (p *rawPeek) look(buf []byte) (int, error) {
	p.buf = buf
	if err := p.raw.Read(p.fn); err != nil {
		return 0, err
	}
	return p.n, p.err
}

// read is the look's one system call; a read that cannot block is
// never interrupted.
func (p *rawPeek) read(fd uintptr) bool {
	n, err := syscall.Read(int(fd), p.buf)
	switch {
	case err == syscall.EAGAIN:
		n, err = 0, errWouldBlock
	case err != nil:
		n = 0
	case n == 0:
		err = io.EOF
	}
	p.n, p.err, p.buf = n, err, nil
	return true // never wait: blocking is the caller's choice
}
