package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// sseFrame is one Server-Sent Events message.
type sseFrame struct {
	event string
	id    uint64
	hasID bool
	data  []byte
}

// readSSEFrame returns the next message of an event stream, skipping
// comment-only blocks (heartbeats). Multi-line data fields are joined
// with '\n' as the SSE specification requires. It is written from the
// specification, not shared with the server's own frame reader, so a
// framing bug there cannot hide from the push checks.
func readSSEFrame(br *bufio.Reader) (*sseFrame, error) {
	f := &sseFrame{}
	var data [][]byte
	seen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if !seen {
				continue
			}
			f.data = bytes.Join(data, []byte("\n"))
			return f, nil
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		seen = true
		switch field {
		case "event":
			f.event = value
		case "id":
			id, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sse: bad id %q", value)
			}
			f.id, f.hasID = id, true
		case "data":
			data = append(data, []byte(value))
		}
	}
}
