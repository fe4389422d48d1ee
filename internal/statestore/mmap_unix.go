//go:build unix

package statestore

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile returns a read-only window over the first size bytes of f,
// continuing prev — the window a previous call returned, nil at first. The
// window's capacity is a reservation that reaches past the end of the file:
// while the file grows inside it the same mapping serves (the kernel backs
// the new pages as the writer appends them), and only a file that outgrows
// it is mapped again, larger. prev stays valid either way.
func mapFile(f *os.File, prev []byte, size int64) ([]byte, error) {
	if size <= int64(cap(prev)) {
		return prev[:size], nil
	}
	reserve, err := reserveFor(size)
	if err != nil {
		return nil, err
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, reserve, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("statestore: mapping %s: %w", f.Name(), err)
	}
	return b[:size], nil
}

// unmapFile releases a reservation mapFile made; w is the window at its
// full capacity.
func unmapFile(w []byte) error {
	if err := syscall.Munmap(w); err != nil {
		return fmt.Errorf("statestore: unmapping: %w", err)
	}
	return nil
}
