package queue

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadRequest fuzzes the request framing every broker connection reads
// (WIRE.md §1). readRequest must never panic; it must refuse a key longer
// than maxKey and a payload longer than maxFrame before it allocates for
// them; and whatever it accepts, framed again by requestHeader, is exactly
// the bytes it consumed and reads back as the same cmd, key and payload.
// The seeds below and the committed corpus under
// testdata/fuzz/FuzzReadRequest hold one frame of each command as the
// transports send them, a pipelined pair and the hostile headers, among
// them a SET whose value length overflows a 32-bit int.
func FuzzReadRequest(f *testing.F) {
	var timeout [8]byte
	binary.LittleEndian.PutUint64(timeout[:], 250)
	f.Add(frameRequest(cmdLPush, "dlion:data:1", []byte{1, 2, 3}))
	f.Add(frameRequest(cmdBRPop, "dlion:data:1", timeout[:]))
	f.Add(frameRequest(cmdPublish, "dlion:serve:weights", []byte("DLS2")))
	f.Add(frameRequest(cmdSub, "dlion:serve:weights", nil))
	f.Add(frameRequest(cmdSet, "dlion:addr:1", []byte("127.0.0.1:40123")))
	f.Add(frameRequest(cmdGet, "dlion:job:j-1:addr:1", timeout[:]))
	f.Add([]byte{cmdLPush, 0x01, 0x10})                   // key length maxKey+1
	f.Add([]byte{cmdLPush, 1, 0, 'k', 1, 0, 0, 4})        // payload length maxFrame+1
	f.Add([]byte{cmdLPush, 1, 0, 'k', 16, 0, 0, 0, 0xaa}) // declared 16, delivered 1

	// A SET value whose length overflows a 32-bit int.
	f.Add([]byte{cmdSet, 1, 0, 'k', 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var cmd byte
		var key string
		var payload []byte
		var err error
		read := func() { cmd, key, payload, err = readRequest(r) }
		if overLimit(data) {
			if n := allocated(read); n > 1<<20 {
				t.Fatalf("an over-limit header cost %d bytes of allocation", n)
			}
			if err == nil {
				t.Fatal("an over-limit header was accepted")
			}
			return
		}
		read()
		if err != nil {
			return
		}
		framed := frameRequest(cmd, key, payload)
		if !bytes.HasPrefix(data, framed) {
			t.Fatalf("request (cmd %d, key %q, %d bytes) frames as %x, not as the bytes it was read from", cmd, key, len(payload), framed)
		}
		c2, k2, p2, err := readRequest(bufio.NewReader(bytes.NewReader(framed)))
		if err != nil || c2 != cmd || k2 != key || !bytes.Equal(p2, payload) {
			t.Fatalf("re-read (%d, %q, %d bytes, %v), want (%d, %q, %d bytes)", c2, k2, len(p2), err, cmd, key, len(payload))
		}
	})
}

// frameRequest is a whole request frame as Client.roundTrip writes it.
func frameRequest(cmd byte, key string, payload []byte) []byte {
	return append(requestHeader(nil, cmd, key, payload), payload...)
}

// overLimit reports whether data's first request header declares a key
// longer than maxKey or a payload longer than maxFrame.
func overLimit(data []byte) bool {
	if len(data) < 3 {
		return false
	}
	klen := int(binary.LittleEndian.Uint16(data[1:]))
	if klen > maxKey {
		return true
	}
	off := 3 + klen
	return len(data) >= off+4 && binary.LittleEndian.Uint32(data[off:]) > maxFrame
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
