package transport

// The tests in receive_test.go run in package transport_test, so that
// they can drive the transport with internal/wire's codec (which imports
// this package) beside testCodec.

// TestCodec is testCodec, exported to those tests.
type TestCodec = testCodec

// Chunk is the receive chunk: the most of a frame a connection reads, and
// holds, at a time.
const Chunk = len(zeroBlock)

// ExpectSevered is expectSevered, exported to those tests.
var ExpectSevered = expectSevered
