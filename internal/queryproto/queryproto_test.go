package queryproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stubTable exercises every Command field without a daemon behind it.
var stubTable = []Command{
	{Name: "echo", Usage: "[WORDS]", Run: func(w *bufio.Writer, args, _ []string) error {
		fmt.Fprintln(w, strings.Join(args, " "))
		return nil
	}},
	{Name: "fail", Run: func(w *bufio.Writer, _, _ []string) error {
		fmt.Fprintln(w, "partial output")
		return errors.New("boom")
	}},
	{Name: "wide", Usage: "N", MinArgs: 1, Run: func(w *bufio.Writer, args, _ []string) error {
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, strings.Repeat("x", n))
		return nil
	}},
	{Name: "need", Usage: "A B", MinArgs: 2, Run: func(w *bufio.Writer, args, _ []string) error {
		fmt.Fprintln(w, "got", args[0], args[1])
		return nil
	}},
	{Name: "sum", Usage: "TAG", MinArgs: 1, Payload: true, Run: func(w *bufio.Writer, args, payload []string) error {
		fmt.Fprintf(w, "%s lines=%d bytes=%d\n", args[0], len(payload), len(strings.Join(payload, "")))
		return nil
	}},
	Quit,
}

// listen serves every accepted connection with handle and returns the
// address.
func listen(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return ln.Addr().String()
}

// rawReply is a misbehaving server: it reads the request through its
// "quit" (so closing leaves nothing unread, which would turn a clean
// close into a reset), writes reply verbatim, and closes — with a TCP
// reset when reset is set.
func rawReply(reply string, reset bool) func(net.Conn) {
	return func(c net.Conn) {
		defer c.Close()
		for r := bufio.NewReader(c); ; {
			if ln, err := r.ReadString('\n'); err != nil || ln == "quit\n" {
				break
			}
		}
		io.WriteString(c, reply)
		if reset {
			c.(*net.TCPConn).SetLinger(0)
		}
	}
}

// TestConformance is the protocol's one conformance table: what the
// client makes of every way a reply can end, and what the server loop
// answers to every shape of session. TestQueryOnceTruncated
// (internal/cluster) and TestQueryUnknownCommand (cmd/merakid) were
// folded into it.
func TestConformance(t *testing.T) {
	serveStub := func(c net.Conn) { serve(c, stubTable, 64) }

	clientCases := []struct {
		name    string
		server  func(net.Conn)
		header  string
		payload []string
		want    []string
		wantErr error // matched with errors.Is; errAny accepts any error
	}{
		{name: "terminator", server: rawReply("a\nb\n\nignored\n", false), header: "x", want: []string{"a", "b"}},
		{name: "empty reply", server: rawReply("\n", false), header: "x"},
		{name: "truncated by clean EOF after lines", server: rawReply("a\nb\n", false), header: "x", wantErr: ErrTruncated},
		{name: "truncated by clean EOF at once", server: rawReply("", false), header: "x", wantErr: ErrTruncated},
		{name: "truncated by reset", server: rawReply("a\n", true), header: "x", wantErr: errAny},
		{name: "ERR passes through as lines", server: serveStub, header: "fail", want: []string{"partial output", "ERR boom"}},
		{name: "line over 64 KiB", server: serveStub, header: "wide 70000", want: []string{strings.Repeat("x", 70000)}},
		{name: "line over 1 MiB", server: serveStub, header: "wide 1048577", wantErr: bufio.ErrTooLong},
		{name: "payload round trip", server: serveStub, header: "sum t", payload: []string{"abc", "de"}, want: []string{"t lines=2 bytes=5"}},
		{name: "empty payload", server: serveStub, header: "sum t", payload: []string{}, want: []string{"t lines=0 bytes=0"}},
		{name: "payload over cap", server: serveStub, header: "sum t", payload: []string{strings.Repeat("p", 40), strings.Repeat("q", 40)}, want: []string{"ERR payload exceeds 64 bytes"}},
	}
	for _, c := range clientCases {
		t.Run("client/"+c.name, func(t *testing.T) {
			lines, err := Do(listen(t, c.server), 5*time.Second, c.header, c.payload...)
			switch {
			case c.wantErr == nil && err != nil:
				t.Fatalf("Do: %v", err)
			case c.wantErr != nil && err == nil:
				t.Fatalf("Do returned %d lines and no error, want %v", len(lines), c.wantErr)
			case c.wantErr != nil && c.wantErr != errAny && !errors.Is(err, c.wantErr):
				t.Fatalf("Do error = %v, want %v", err, c.wantErr)
			case c.wantErr != nil && lines != nil:
				t.Fatalf("failed exchange leaked partial lines: %q", lines)
			}
			if strings.Join(lines, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("lines = %.80q, want %.80q", lines, c.want)
			}
		})
	}

	// Session cases run over net.Pipe and end with an implicit "quit";
	// eof cases instead run over TCP and half-close after the input,
	// because only a real socket can show Serve the end of input while
	// still reading its answer.
	sessionCases := []struct {
		name, in, want string
		eof            bool
	}{
		{name: "blank input lines skipped", in: "\n  \necho a\n\n", want: "a\n\n"},
		{name: "quit ends the session unanswered", in: "echo a\nquit\necho never\n", want: "a\n\n"},
		{name: "unknown command keeps the session alive", in: "bogus x\necho still here\n", want: "ERR unknown command \"bogus\"\n\nstill here\n\n"},
		{name: "arity error names the operands", in: "need 1\nneed 1 2\n", want: "ERR need needs A B\n\ngot 1 2\n\n"},
		{name: "handler error follows its output", in: "fail\n", want: "partial output\nERR boom\n\n"},
		{name: "payload then next command", in: "sum t\nabc\n\necho next\n", want: "t lines=1 bytes=3\n\nnext\n\n"},
		{name: "payload consumed before the arity check", in: "sum\nabc\n\necho next\n", want: "ERR sum needs TAG\n\nnext\n\n"},
		{name: "payload over cap is drained and the session survives", in: "sum t\n" + strings.Repeat("p", 70) + "\nmore\n\necho next\n", want: "ERR payload exceeds 64 bytes\n\nnext\n\n"},
		{name: "payload line over 1 MiB is a truncated payload", in: "sum t\n" + strings.Repeat("p", MaxLine+1) + "\n\n", want: "ERR truncated payload\n\n"},
		{name: "truncated payload ends the session", in: "sum t\nabc\n", want: "ERR truncated payload\n\n", eof: true},
		{name: "end of input without quit", in: "echo a\n", want: "a\n\n", eof: true},
	}
	for _, c := range sessionCases {
		t.Run("server/"+c.name, func(t *testing.T) {
			var client net.Conn
			if c.eof {
				var err error
				if client, err = net.Dial("tcp", listen(t, serveStub)); err != nil {
					t.Fatal(err)
				}
			} else {
				var server net.Conn
				client, server = net.Pipe()
				go serveStub(server)
			}
			defer client.Close()
			client.SetDeadline(time.Now().Add(5 * time.Second))
			go func() {
				if c.eof {
					io.WriteString(client, c.in)
					client.(*net.TCPConn).CloseWrite()
				} else {
					io.WriteString(client, c.in+"quit\n")
				}
			}()
			got, err := io.ReadAll(client)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.want {
				t.Fatalf("session %.60q answered %.80q, want %.80q", c.in, got, c.want)
			}
		})
	}
}

// errAny marks a client case that must fail without pinning how.
var errAny = errors.New("any error")
