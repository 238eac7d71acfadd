package main

import (
	"strings"
	"testing"

	"repro/internal/shard"
)

// TestParseShard pins the -shard syntax, addr[,store-dir]. A third field is
// refused with the form in the message: the old addr,dir,kind spelling would
// otherwise name the empty directory "dir,kind" and adopt nothing.
func TestParseShard(t *testing.T) {
	for v, want := range map[string]shard.Shard{
		"localhost:8081":           {Addr: "localhost:8081"},
		"localhost:8081,/srv/s0":   {Addr: "localhost:8081", Dir: "/srv/s0"},
		"localhost:8081,":          {Addr: "localhost:8081"},
		"localhost:8081,/srv/s 0/": {Addr: "localhost:8081", Dir: "/srv/s 0/"},
	} {
		if got, err := parseShard(v); err != nil || got != want {
			t.Errorf("parseShard(%q) = %+v, %v; want %+v", v, got, err, want)
		}
	}
	for _, v := range []string{"", ",/srv/s0", "localhost:8081,/srv/s0,wal", "localhost:8081,/srv/s0,file", "localhost:8081,/srv/s0,"} {
		_, err := parseShard(v)
		if err == nil || !strings.Contains(err.Error(), "addr[,store-dir]") {
			t.Errorf("parseShard(%q) error = %v, want one naming addr[,store-dir]", v, err)
		}
	}
}
