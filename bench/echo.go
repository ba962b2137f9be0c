package main

// The bare loopback exchange: fleet_rounds' direct twin.

import (
	"io"
	"net"
	"time"
)

// echo is one TCP connection to an in-process echo server on loopback:
// what a control exchange costs the host when nothing of PADLL is on
// either end. Frames are the size of an idle collect exchange.
type echo struct {
	l    net.Listener
	c    net.Conn
	done chan struct{}
	buf  [echoFrame]byte
}

const echoFrame = 40 // bytes each way

func newEcho() (*echo, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{l: l, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		srv, err := l.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		var buf [echoFrame]byte
		for {
			if _, err := io.ReadFull(srv, buf[:]); err != nil {
				return
			}
			if _, err := srv.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if e.c, err = net.Dial("tcp", l.Addr().String()); err != nil {
		_ = l.Close() // the dial error is the one to report
		<-e.done
		return nil, err
	}
	return e, nil
}

// ping times one exchange.
func (e *echo) ping() (time.Duration, error) {
	t0 := now()
	if _, err := e.c.Write(e.buf[:]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(e.c, e.buf[:]); err != nil {
		return 0, err
	}
	return now().Sub(t0), nil
}

func (e *echo) close() {
	_ = e.c.Close() // shutdown: the server side sees EOF and exits
	_ = e.l.Close()
	<-e.done
}
