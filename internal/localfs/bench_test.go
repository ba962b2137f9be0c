package localfs

import (
	"fmt"
	"testing"

	"padll/internal/clock"
	"padll/internal/posix"
)

// BenchmarkLocalFSCreateUnlink times one creat, close and unlink through
// the typed client, cycling over 1,024 names.
func BenchmarkLocalFSCreateUnlink(b *testing.B) {
	c := posix.NewClient(New(clock.NewReal()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("/f%d", i&1023)
		fd, err := c.Creat(p, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			b.Fatal(err)
		}
		if err := c.Unlink(p); err != nil {
			b.Fatal(err)
		}
	}
}
