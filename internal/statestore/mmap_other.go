//go:build !unix

package statestore

import "os"

func mapFile(f *os.File, prev []byte, size int64) ([]byte, error) { return loadFile(f, prev, size) }

func unmapFile([]byte) error { return nil }
