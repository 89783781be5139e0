package forum

import (
	"testing"

	"repro/internal/mp"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload"
)

var smallCfg = Config{Users: 4, Forums: 2, Posts: 5, Msgs: 3, Seed: 1}

func TestPlainForum(t *testing.T) {
	ex := workload.PlainDB{DB: sqldb.New()}
	if err := Load(ex, smallCfg, nil); err != nil {
		t.Fatal(err)
	}
	s := NewSim(ex, smallCfg, nil)
	for _, k := range Kinds() {
		if _, err := s.Request(k); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, _, err := s.Mix(); err != nil {
			t.Fatalf("mix: %v", err)
		}
	}
}

func TestEncryptedForumSingle(t *testing.T) {
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(p, smallCfg, nil); err != nil {
		t.Fatal(err)
	}
	s := NewSim(p, smallCfg, nil)
	for i := 0; i < 50; i++ {
		if _, _, err := s.Mix(); err != nil {
			t.Fatalf("mix: %v", err)
		}
	}
}

func TestAnnotatedForumMultiPrincipal(t *testing.T) {
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg
	cfg.Annotated = true
	if err := Load(m, cfg, m.Login); err != nil {
		t.Fatal(err)
	}
	s := NewSim(m, cfg, m.Login)
	for _, k := range Kinds() {
		if _, err := s.Request(k); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, _, err := s.Mix(); err != nil {
			t.Fatalf("mix: %v", err)
		}
	}
}

func TestPassthroughForum(t *testing.T) {
	ex := workload.Passthrough{DB: sqldb.New()}
	if err := Load(ex, smallCfg, nil); err != nil {
		t.Fatal(err)
	}
	s := NewSim(ex, smallCfg, nil)
	for i := 0; i < 30; i++ {
		if _, _, err := s.Mix(); err != nil {
			t.Fatalf("mix: %v", err)
		}
	}
}
