package mp

import "testing"

func TestChangePassword(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'old-pw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 1)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 's', 'kept across password change')")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")

	if err := m.ChangePassword("Alice", "old-pw", "new-pw"); err != nil {
		t.Fatal(err)
	}
	// Old password no longer works.
	if _, err := m.Execute("INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'old-pw')"); err == nil {
		t.Fatal("old password still accepted")
	}
	// New password unlocks the same principal key: old data readable, no
	// re-encryption happened (§4.2).
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'new-pw')")
	res := mustExec(t, m, "SELECT msgtext FROM privmsgs WHERE msgid = 5")
	if res.Rows[0][0].S != "kept across password change" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestChangePasswordWrongOld(t *testing.T) {
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'pw')")
	if err := m.ChangePassword("Alice", "WRONG", "new"); err == nil {
		t.Fatal("wrong old password accepted")
	}
	if err := m.ChangePassword("Nobody", "x", "y"); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestKeyCacheErasedOnLogout(t *testing.T) {
	// The §4.2 key-cache optimization must not outlive the session: after
	// logout, previously cached chains must be unusable.
	m := setupPhpBB(t)
	mustExec(t, m, "INSERT INTO cryptdb_active (username, password) VALUES ('Alice', 'pw')")
	mustExec(t, m, "INSERT INTO users (userid, username) VALUES (1, 'Alice')")
	mustExec(t, m, "INSERT INTO privmsgs_to (msgid, rcpt_id, sender_id) VALUES (5, 1, 1)")
	mustExec(t, m, "INSERT INTO privmsgs (msgid, subject, msgtext) VALUES (5, 's', 'body')")

	// Warm the cache with a successful read.
	mustExec(t, m, "SELECT msgtext FROM privmsgs WHERE msgid = 5")
	mustExec(t, m, "DELETE FROM cryptdb_active WHERE username = 'Alice'")
	if _, err := m.Execute("SELECT msgtext FROM privmsgs WHERE msgid = 5"); err == nil {
		t.Fatal("cached key survived logout")
	}
}
