import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption("--audit-trusted", action="store_true", default=False,
                     help="check every _trusted construction against the validating "
                          "constructor of its class (tests/trusted_audit.py)")


def pytest_configure(config):
    if config.getoption("audit_trusted"):
        import trusted_audit
        trusted_audit.install()


def pytest_sessionfinish(session):
    if session.config.getoption("audit_trusted"):
        import trusted_audit
        if trusted_audit.MISMATCHES:
            session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    if config.getoption("audit_trusted"):
        import trusted_audit
        terminalreporter.write_line(trusted_audit.summary())
