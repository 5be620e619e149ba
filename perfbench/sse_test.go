package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

func TestReadSSEFrame(t *testing.T) {
	stream := ": hb\n\n" +
		"event: snapshot\nid: 1\ndata: {\"a\":1}\n\n" +
		": hb\n\n" +
		"event: update\r\nid: 7\r\ndata: {\r\ndata:   \"b\": 2\r\ndata: }\r\n\r\n" +
		"event: shutdown\ndata: bye\n\n"
	br := bufio.NewReader(strings.NewReader(stream))
	want := []sseFrame{
		{event: "snapshot", id: 1, hasID: true, data: []byte(`{"a":1}`)},
		{event: "update", id: 7, hasID: true, data: []byte("{\n  \"b\": 2\n}")},
		{event: "shutdown", data: []byte("bye")},
	}
	for i, w := range want {
		f, err := readSSEFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.event != w.event || f.id != w.id || f.hasID != w.hasID || string(f.data) != string(w.data) {
			t.Fatalf("frame %d = %+v (data %q), want %+v (data %q)", i, *f, f.data, w, w.data)
		}
	}
	if _, err := readSSEFrame(br); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

func TestReadSSEFrameErrors(t *testing.T) {
	if _, err := readSSEFrame(bufio.NewReader(strings.NewReader("id: x\n\n"))); err == nil {
		t.Error("a non-numeric id must fail")
	}
	// A stream cut inside a frame is an error, not a partial frame.
	if _, err := readSSEFrame(bufio.NewReader(strings.NewReader("event: update\ndata: {"))); err == nil {
		t.Error("a truncated frame must fail")
	}
}
