import pytest

from kgprompt.errors import ConfigError, RemoteServiceError
from kgprompt.llm import (
    CompletionRequest,
    ProviderConfig,
    RemoteClient,
    build_client,
)
from kgprompt.remote import API_TOKEN_ENV


class TestScriptedProvider:
    def test_key_match(self):
        config = ProviderConfig(
            script={
                "(Alex Chilton, place of death, New Orleans)": "Alex Chilton died in New Orleans."
            }
        )
        prompt = (
            "Below are facts in the form of the triple meaningful to answer the question.\n"
            "(Alex Chilton, place of death, New Orleans)\n"
            "Question: Where did Alex Chilton die? Answer:"
        )
        text = build_client(config).generate(CompletionRequest(prompt))
        assert text == "Alex Chilton died in New Orleans."

    def test_no_match_returns_unknown(self):
        config = ProviderConfig(script={"never present": "nope"})
        assert build_client(config).generate(CompletionRequest("Question: x Answer:")) == "UNKNOWN"

    def test_insertion_order_precedence(self):
        config = ProviderConfig(script={"alpha": "first", "alpha beta": "second"})
        assert build_client(config).generate(CompletionRequest("alpha beta gamma")) == "first"

    def test_pure_and_deterministic(self):
        config = ProviderConfig(script={"a": "one"})
        request = CompletionRequest("prompt with a inside")
        client = build_client(config)
        assert client.generate(request) == client.generate(request) == "one"
        assert request.prompt == "prompt with a inside"

    def test_request_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest("")
        with pytest.raises(ValueError):
            CompletionRequest("x", max_output_tokens=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ProviderConfig(kind="remote")
        with pytest.raises(ConfigError):
            ProviderConfig(max_concurrency=0)

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), "30", True])
    def test_bad_timeout_is_a_config_error_naming_it(self, timeout):
        with pytest.raises(ConfigError, match="provider timeout must be a finite number above 0") as excinfo:
            ProviderConfig(kind="remote", endpoint="http://127.0.0.1:1/complete", timeout=timeout)
        assert str(excinfo.value).endswith(f"got {timeout!r}")

    @pytest.mark.parametrize("timeout", [2, 0.25, 1e-3])
    def test_positive_timeouts_accepted(self, timeout):
        assert ProviderConfig(timeout=timeout).timeout == timeout


class TestRemoteProvider:
    def test_successful_completion(self, http_service):
        config = ProviderConfig(
            kind="remote", endpoint=f"{http_service.url}/complete", model_name="m1"
        )
        text = build_client(config).generate(CompletionRequest("hello there"))
        assert text == "completion for 11 chars"

    def test_retry_then_success(self, http_service):
        http_service.state.fail_remaining = 2
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/flaky")
        client = RemoteClient(config, sleep=lambda _s: None)
        assert client.generate(CompletionRequest("x")) == "recovered"
        assert http_service.state.requests == 3

    def test_retries_exhausted_reports_attempts(self, http_service):
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/always_500")
        client = RemoteClient(config, sleep=lambda _s: None)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.generate(CompletionRequest("x"))
        assert excinfo.value.attempts == 4  # 1 initial + 3 retries
        assert excinfo.value.status == 500

    def test_backoff_schedule(self, http_service):
        http_service.state.fail_remaining = 3
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/flaky")
        client = RemoteClient(config, sleep=delays.append)
        assert client.generate(CompletionRequest("x")) == "recovered"
        assert delays == [1.0, 2.0, 4.0]

    def test_non_json_body_fails(self, http_service):
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/not_json")
        client = RemoteClient(config, sleep=lambda _s: None)
        with pytest.raises(RemoteServiceError):
            client.generate(CompletionRequest("x"))

    def test_missing_text_field_fails(self, http_service):
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/no_text")
        client = RemoteClient(config, sleep=lambda _s: None)
        with pytest.raises(RemoteServiceError, match="text"):
            client.generate(CompletionRequest("x"))

    @pytest.mark.parametrize("status", [429, 502])
    def test_retryable_statuses_retried(self, http_service, status):
        http_service.state.fail_remaining = 1
        http_service.state.flaky_status = status
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/flaky")
        client = RemoteClient(config, sleep=delays.append)
        assert client.generate(CompletionRequest("x")) == "recovered"
        assert delays == [1.0]
        assert http_service.state.requests == 2

    def test_transport_error_retried(self):
        delays = []
        config = ProviderConfig(kind="remote", endpoint="http://127.0.0.1:1/complete", timeout=2)
        client = RemoteClient(config, sleep=delays.append)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.generate(CompletionRequest("x"))
        assert excinfo.value.attempts == 4
        assert excinfo.value.status is None
        assert delays == [1.0, 2.0, 4.0]

    def test_unknown_path_fails_fast(self, http_service):
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/wrong_path")
        client = RemoteClient(config, sleep=delays.append)
        with pytest.raises(RemoteServiceError, match="404") as excinfo:
            client.generate(CompletionRequest("x"))
        assert excinfo.value.status == 404
        assert excinfo.value.attempts == 1
        assert http_service.state.requests == 1
        assert delays == []

    @pytest.mark.parametrize("status", [400, 401, 403, 422])
    def test_client_errors_fail_fast(self, http_service, status):
        http_service.state.fail_remaining = 1
        http_service.state.flaky_status = status
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/flaky")
        client = RemoteClient(config, sleep=delays.append)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.generate(CompletionRequest("x"))
        assert (excinfo.value.status, excinfo.value.attempts) == (status, 1)
        assert http_service.state.requests == 1
        assert delays == []

    @pytest.mark.parametrize("path", ["/not_json", "/no_text"])
    def test_bad_success_body_fails_fast(self, http_service, path):
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}{path}")
        client = RemoteClient(config, sleep=delays.append)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.generate(CompletionRequest("x"))
        assert excinfo.value.attempts == 1
        assert http_service.state.requests == 1
        assert delays == []

    def test_bearer_token_sent_when_configured(self, http_service, monkeypatch):
        monkeypatch.setenv(API_TOKEN_ENV, "sekret-token")
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete")
        build_client(config).generate(CompletionRequest("x"))
        assert http_service.state.last_authorization == "Bearer sekret-token"

    def test_no_auth_header_without_token(self, http_service, monkeypatch):
        monkeypatch.delenv(API_TOKEN_ENV, raising=False)
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/complete")
        build_client(config).generate(CompletionRequest("x"))
        assert http_service.state.last_authorization is None
