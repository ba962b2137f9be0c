// Package errfix seeds errdrop violations for the golden test: discarded
// Close errors, a deferred Close on an output file, dropped
// posix.FileSystem and rpcio errors — and the explicit forms that must
// stay silent.
package errfix

import (
	"os"

	"padll/internal/posix"
	"padll/internal/rpcio"
)

type fakeFS struct{}

func (fakeFS) Apply(req *posix.Request, rep *posix.Reply) error { return nil }

var _ posix.FileSystem = fakeFS{}

func dropClose(f *os.File) {
	f.Close() // want `\*os\.File\.Close\(\) error discarded`
}

func deferredOutputClose() error {
	f, err := os.Create("out.csv")
	if err != nil {
		return err
	}
	defer f.Close() // want `deferred \*os\.File\.Close\(\) discards the error`
	_, err = f.Write([]byte("ts,ops\n"))
	return err
}

func dropApply(fs fakeFS, req *posix.Request, rep *posix.Reply) {
	fs.Apply(req, rep) // want `posix\.FileSystem Apply error discarded`
}

func dropRPC(h *rpcio.StageHandle) {
	h.CollectDeltaInto(nil) // want `rpcio\.CollectDeltaInto error discarded`
}

func explicitDiscard(f *os.File) {
	_ = f.Close() // assigning to _ is a visible decision: accepted
}

func handled(f *os.File) error {
	return f.Close()
}

func deferredShutdownClose(h *rpcio.StageHandle) {
	// Deferring a non-file Close on a shutdown path is accepted idiom.
	defer h.Close()
}

func suppressed(f *os.File) {
	f.Close() //lint:allow errdrop fixture demonstrates a justified exception
}
