package specio

// Binary-layout names for the external tests in binary_test.go, which live
// in package specio_test because they compile documents with core.
const (
	BinaryMagic      = binaryMagic
	BinaryHeaderSize = binaryHeaderSize
	RecReps          = recReps
)
