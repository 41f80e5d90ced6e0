package wire

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

// DecodeFrames parses a request envelope. Frame payloads alias p; the
// verb handlers decode them before the buffer is reused.
func DecodeFrames(p []byte) ([]Frame, error) {
	r := NewReader(p)
	n := r.Uint32()
	frames := make([]Frame, 0, n)
	for i := uint32(0); i < n; i++ {
		f := Frame{Verb: r.String()}
		f.Payload = r.Bytes32()
		frames = append(frames, f)
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
	n := r.Uint32()
	results := make([]FrameResult, 0, n)
	for i := uint32(0); i < n; i++ {
		fr := FrameResult{Err: r.String()}
		fr.Payload = r.Bytes32()
		results = append(results, fr)
	}
	return results, r.Err()
}
