package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/queryproto"
)

// TestRunExitStatus pins what makes apstat exit non-zero: an ERR answer
// and a reply cut short before its terminator both used to print what
// arrived and exit 0.
func TestRunExitStatus(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	table := []queryproto.Command{{Name: "clients", Run: func(w *bufio.Writer, _, _ []string) error {
		fmt.Fprintln(w, "42")
		return nil
	}}}
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n == 0 { // the first connection dies mid-reply
				// Read through "quit" so the close is clean, not a reset.
				for r := bufio.NewReader(conn); ; {
					if ln, err := r.ReadString('\n'); err != nil || ln == "quit\n" {
						break
					}
				}
				fmt.Fprintln(conn, "half an answer")
				conn.Close()
				continue
			}
			go queryproto.Serve(conn, table)
		}
	}()
	addr := ln.Addr().String()

	var out strings.Builder
	if err := run(&out, addr, "clients", 5*time.Second); !errors.Is(err, queryproto.ErrTruncated) {
		t.Fatalf("truncated reply: err = %v, want ErrTruncated", err)
	}
	if out.Len() != 0 {
		t.Fatalf("truncated reply printed %q", out.String())
	}
	if err := run(&out, addr, "bogus", 5*time.Second); err == nil || !strings.HasPrefix(err.Error(), "ERR unknown command") {
		t.Fatalf("ERR reply: err = %v, want the ERR line", err)
	}
	if err := run(&out, addr, "clients", 5*time.Second); err != nil || out.String() != "42\n" {
		t.Fatalf("good reply: err = %v, printed %q", err, out.String())
	}
}
