package wire

import (
	"bytes"
	"testing"

	"github.com/chillerdb/chiller/internal/testutil"
)

func TestFrameEnvelopeRoundTrip(t *testing.T) {
	in := []Frame{
		{Verb: "lr", Payload: []byte{1, 2, 3}},
		{Verb: "cm", Payload: nil},
		{Verb: "repl", Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	out, err := DecodeFrames(EncodeFrames(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d frames", len(out))
	}
	for i := range in {
		if out[i].Verb != in[i].Verb || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, out[i])
		}
	}
}

func TestFrameResultsRoundTrip(t *testing.T) {
	in := []FrameResult{
		{Err: "", Payload: []byte{9}},
		{Err: "storage: lock conflict", Payload: nil},
	}
	out, err := DecodeFrameResults(EncodeFrameResults(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Err != "" || out[1].Err != in[1].Err ||
		!bytes.Equal(out[0].Payload, in[0].Payload) {
		t.Fatalf("results = %+v", out)
	}
}

func TestFrameEnvelopeTruncated(t *testing.T) {
	enc := EncodeFrames([]Frame{{Verb: "lr", Payload: []byte{1, 2, 3, 4}}})
	if _, err := DecodeFrames(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated envelope decoded without error")
	}
	if out, err := DecodeFrames(EncodeFrames(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty envelope: %v %v", out, err)
	}
}

// Decoding an envelope allocates the frame slice and nothing per frame:
// payloads alias the buffer and verb names are interned.
func TestDecodeFramesAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	frames := make([]Frame, 4)
	for i := range frames {
		frames[i] = Frame{Verb: "lr", Payload: make([]byte, 64)}
	}
	enc := EncodeFrames(frames)
	got := testing.AllocsPerRun(100, func() {
		if out, err := DecodeFrames(enc); err != nil || len(out) != 4 || out[3].Verb != "lr" {
			t.Fatalf("decode: %v %v", out, err)
		}
	})
	if got > 1 {
		t.Errorf("DecodeFrames: %v allocations per envelope, want 1", got)
	}
}
