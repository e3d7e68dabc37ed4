"""REST layer: the paper's update interface over an in-process router."""

from repro.rest.api import (
    RestApi,
    RestResponse,
    Route,
    Router,
    build_campaign_api,
    build_rest_api,
)
from repro.rest.http_binding import HttpClient, RestHttpServer
from repro.rest.schemas import validate_schedule_body

__all__ = [
    "HttpClient",
    "RestApi",
    "RestHttpServer",
    "RestResponse",
    "Route",
    "Router",
    "build_campaign_api",
    "build_rest_api",
    "validate_schedule_body",
]
