package wire

import "sync/atomic"

// Batched verb envelope. A doorbell batch ships every verb bound for one
// destination node as a single fabric operation: the sender posts frames
// (verb name + encoded payload), rings one doorbell, and receives one
// response envelope carrying a result per frame in posting order. The
// encoding is deliberately dumb — a count followed by length-prefixed
// frames — so the envelope adds two integers and the verb names to the
// payloads themselves.

// Frame is one verb invocation inside a request envelope.
type Frame struct {
	// Verb is the method name the destination dispatches on.
	Verb string
	// Payload is the verb's encoded request.
	Payload []byte
}

// FrameResult is one verb's outcome inside a response envelope.
type FrameResult struct {
	// Err is the verb's error text, empty on success. Errors stay
	// per-frame: one failed verb does not poison its batch siblings.
	Err string
	// Payload is the verb's encoded response.
	Payload []byte
}

// EncodeFrames serializes a request envelope.
func EncodeFrames(frames []Frame) []byte {
	n := 8
	for _, f := range frames {
		n += 8 + len(f.Verb) + len(f.Payload)
	}
	w := NewWriter(n)
	w.Uint32(uint32(len(frames)))
	for _, f := range frames {
		w.String(f.Verb)
		w.Bytes32(f.Payload)
	}
	return w.Bytes()
}

// minFrame is an empty frame's (or result's) size: two length prefixes.
const minFrame = 8

// Frame decodes the next frame of a request envelope, allocating
// nothing: the payload aliases the buffer and the verb is interned.
func (r *Reader) Frame() Frame {
	verb := r.Bytes32()
	f := Frame{Payload: r.Bytes32()}
	if len(verb) == 0 {
		return f
	}
	// Verbs are a dozen short constants: a small direct-mapped cache of
	// the names seen turns the per-frame string into a comparison (a
	// forged name costs its own string and a slot).
	slot := &verbNames[(len(verb)*31+int(verb[0])+int(verb[len(verb)-1]))%len(verbNames)]
	if s := slot.Load(); s != nil && *s == string(verb) {
		f.Verb = *s
		return f
	}
	name := string(verb)
	slot.Store(&name)
	f.Verb = name
	return f
}

var verbNames [16]atomic.Pointer[string]

// DecodeFrames parses a request envelope. Frame payloads alias p; the
// verb handlers decode them before the buffer is reused.
func DecodeFrames(p []byte) ([]Frame, error) {
	r := NewReader(p)
	frames := make([]Frame, r.Count(minFrame))
	for i := range frames {
		frames[i] = r.Frame()
	}
	return frames, r.Err()
}

// EncodeFrameResults serializes a response envelope.
func EncodeFrameResults(results []FrameResult) []byte {
	n := 8
	for _, fr := range results {
		n += 8 + len(fr.Err) + len(fr.Payload)
	}
	w := NewWriter(n)
	w.Uint32(uint32(len(results)))
	for _, fr := range results {
		w.String(fr.Err)
		w.Bytes32(fr.Payload)
	}
	return w.Bytes()
}

// DecodeFrameResults parses a response envelope. Result payloads alias p.
func DecodeFrameResults(p []byte) ([]FrameResult, error) {
	r := NewReader(p)
	results := make([]FrameResult, r.Count(minFrame))
	for i := range results {
		results[i].Err = r.String()
		results[i].Payload = r.Bytes32()
	}
	return results, r.Err()
}
