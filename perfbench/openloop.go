package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// replyTimeout bounds how long a pipe waits for any one response.
const replyTimeout = 60 * time.Second

// pipe is one keep-alive HTTP/1.1 connection driven open-loop: the
// sending goroutine writes requests on schedule without waiting for their
// responses, and the pipe's own receiver goroutine reads the responses in
// order. The server handles one connection's requests one at a time, so a
// slow request holds up only the requests queued behind it on the same
// connection, never the rest of the load.
type pipe struct {
	conn  net.Conn
	queue chan pipeReq
	done  chan struct{}
}

// pipeReq is a sent request waiting for its response; onReply runs on the
// receiver goroutine with the response status and body and the time the
// response was complete.
type pipeReq struct {
	onReply func(status int, body []byte, at time.Time, err error)
}

// dialPipe connects a pipe. capacity must be at least the number of
// requests the run can send on it, so send never blocks on the queue.
func dialPipe(addr string, capacity int) (*pipe, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &pipe{conn: c, queue: make(chan pipeReq, capacity), done: make(chan struct{})}
	go p.receive()
	return p, nil
}

// send queues the reply handler and writes the raw request.
func (p *pipe) send(raw []byte, onReply func(status int, body []byte, at time.Time, err error)) {
	p.queue <- pipeReq{onReply: onReply}
	if _, err := p.conn.Write(raw); err != nil {
		// The receiver then fails this and every later request.
		p.conn.Close()
	}
}

func (p *pipe) receive() {
	defer close(p.done)
	br := bufio.NewReader(p.conn)
	var broken error
	for req := range p.queue {
		if broken != nil {
			req.onReply(0, nil, time.Now(), broken)
			continue
		}
		p.conn.SetReadDeadline(time.Now().Add(replyTimeout))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			broken = err
			req.onReply(0, nil, time.Now(), err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			broken = err
		}
		req.onReply(resp.StatusCode, body, time.Now(), err)
	}
}

// close waits for every queued response, then closes the connection.
func (p *pipe) close() {
	close(p.queue)
	<-p.done
	p.conn.Close()
}

func rawGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

func rawPost(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}
